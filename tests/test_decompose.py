import dataclasses
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from formforge import decompose, forms, jsonio, poly
from formforge import (
    DegenerateInput,
    DegreeTooSmall,
    HomogeneousForm,
    LinearMap,
    Polynomial,
    QQ,
    apply_change_of_basis,
    cayley_dickson_quartic,
    center_algebra,
    det_norm,
    diagonal_form,
    field_extend,
    is_absolutely_indecomposable,
    krull_schmidt_decompose,
    linalg,
    orthogonal_sum,
    polarize,
    primitive_idempotents,
    split_albert_norm,
    split_jordan_q4,
    tits_cubic,
    transfer_form,
)
from formforge.coeffield import EtaleAlgebra, FieldElement
from oracles import FieldPolys, per_component_decomposition


def var(n, i):
    return Polynomial.variable(QQ, n, i)


def diag(coeffs, d):
    n = len(coeffs)
    pairs = [
        (tuple(d if j == i else 0 for j in range(n)), c)
        for i, c in enumerate(coeffs)
    ]
    return HomogeneousForm.from_body(d, Polynomial.from_pairs(QQ, n, pairs))


def xy2():
    return HomogeneousForm.from_body(3, var(2, 0) * var(2, 1) ** 2)


def mat_mul(a, b):
    n = len(a)
    zero = a[0][0].field.zero
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n))
        for i in range(n)
    )


def eye(field, n):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))


def tits_diag():
    return orthogonal_sum(tits_cubic(2).form, diag([1, 2], 3))


def tits_diag_changed():
    phi = tits_diag()
    return apply_change_of_basis(phi, unitriangular(phi.nvars, random.Random(0)))


SQRT2 = field_extend(QQ, [-2, 0, 1])
CBRT2 = field_extend(QQ, [-2, 0, 0, 1])
T3 = field_extend(QQ, [-3, -1, 0, 1])  # t^3 - t - 3: irreducible, with no cube root in it
HALF = field_extend(QQ, [Fraction(-1, 2), 0, 1])  # t^2 = 1/2: the tensor's den is 2
_OMEGA = field_extend(QQ, [1, 1, 1])
TOWER = field_extend(_OMEGA, [_OMEGA.from_rational(-2), _OMEGA.zero, _OMEGA.zero, _OMEGA.one])


def changed_over(k, coeffs, tits, seed):
    """<c + t> for c in coeffs, t the generator of k, plus the Tits cubic of
    t + tits when tits is not None, after an upper triangular change of
    basis with 1, 2 or t on the diagonal and +-1 or +-t above it."""
    phi = diagonal_form([k.from_rational(c) + k.gen for c in coeffs], 3, field=k).form
    if tits is not None:
        phi = orthogonal_sum(tits_cubic(k.gen + k.from_rational(tits)).form, phi)
    rng = random.Random(seed)
    n = phi.nvars
    rows = [[rng.choice((k.one, k.from_rational(2), k.gen)) if i == j
             else rng.choice((k.one, -k.one, k.gen, -k.gen)) if j > i
             else k.zero for j in range(n)] for i in range(n)]
    return apply_change_of_basis(phi, LinearMap(k, rows))


def sqrt2_pair():
    """<1, sqrt 2> over Q(sqrt 2)."""
    k = field_extend(QQ, [-2, 0, 1])
    return diagonal_form([k.one, k.element([0, 1])], 3, field=k).form


def as_fracs(m):
    return tuple(tuple(x.as_rational() for x in row) for row in m)


def test_split_cubic_center_is_two_dimensional():
    center = center_algebra(polarize(diag([1, 2], 3)))
    assert center.dim == 2
    idems = primitive_idempotents(center)
    assert {as_fracs(e) for e, _ in idems} == {
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),
    }


def _center_nullity_oracle(theta, n, d):
    """Rank of the raw sliding system, done directly over Fraction."""
    assert d == 3
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for a in range(n):
                    row[a * n + i] += theta.get(tuple(sorted((a, j, k))), Fraction(0))
                    row[a * n + j] -= theta.get(tuple(sorted((i, a, k))), Fraction(0))
                rows.append(row)
    rank = 0
    cols = n * n
    pivot_row = 0
    for c in range(cols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][c] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][c]
        rows[pivot_row] = [x / lead for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        rank += 1
        pivot_row += 1
    return cols - rank


def test_monomial_center_matches_direct_solve():
    phi = xy2()
    center = center_algebra(polarize(phi))
    oracle = _center_nullity_oracle({(0, 1, 1): Fraction(1, 3)}, 2, 3)
    assert oracle == 2
    assert center.dim == oracle


def test_monomial_center_is_identity_plus_nilpotent():
    center = center_algebra(polarize(xy2()))
    half = QQ.from_rational(Fraction(1, 2))
    for b in center.basis:
        t = (b[0][0] + b[1][1]) * half
        n = tuple(
            tuple(b[i][j] - (t if i == j else QQ.from_rational(0)) for j in range(2))
            for i in range(2)
        )
        sq = mat_mul(n, n)
        assert all(x.is_zero() for row in sq for x in row)


def test_single_variable_center_is_scalar():
    assert center_algebra(polarize(diag([1], 3))).dim == 1


def test_diagonal_cubic_splits_completely():
    dec = krull_schmidt_decompose(diag([1, 2, 3], 3))
    assert [c.dim for c in dec.components] == [1, 1, 1]
    bodies = sorted(
        c.form.body.eval_int((1,)).as_rational() for c in dec.components
    )
    assert bodies == [1, 2, 3]


def test_monomial_cubic_is_one_component():
    dec = krull_schmidt_decompose(xy2())
    assert len(dec.components) == 1
    assert dec.components[0].dim == 2
    assert is_absolutely_indecomposable(xy2())


def test_split_sum_is_not_absolutely_indecomposable():
    assert not is_absolutely_indecomposable(diag([1, 1], 3))


def test_squared_quadratic_is_absolutely_indecomposable():
    body = (var(2, 0) ** 2 - var(2, 1) ** 2) ** 2
    assert is_absolutely_indecomposable(HomogeneousForm.from_body(4, body))


def test_idempotents_are_orthogonal_and_complete():
    for phi in (diag([1, 2, 3], 3), tits_diag_changed(), orthogonal_sum(xy2(), diag([1, 2], 3)),
                sqrt2_pair()):
        field, n = phi.field, phi.nvars
        dec = krull_schmidt_decompose(phi)
        span = [[x for row in b for x in row] for b in center_algebra(polarize(phi)).basis]
        total = tuple(tuple(field.zero for _ in range(n)) for _ in range(n))
        for e in dec.idempotents:
            assert mat_mul(e, e) == e
            assert linalg.rank(field, span + [[x for row in e for x in row]]) == len(span)
            total = tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(total, e))
        assert total == eye(field, n)
        for a in range(len(dec.idempotents)):
            for b in range(a + 1, len(dec.idempotents)):
                prod = mat_mul(dec.idempotents[a], dec.idempotents[b])
                assert all(x.is_zero() for row in prod for x in row)


@pytest.mark.parametrize("make", [xy2, lambda: diag([1, 2, 3], 3), tits_diag, tits_diag_changed,
                                  sqrt2_pair, lambda: changed_over(TOWER, [1, 2], None, 0)],
                         ids=["xy2", "diag3", "tits-diag", "tits-diag-changed", "sqrt2-pair",
                              "tower-changed"])
def test_structure_constants_multiply_the_basis(make):
    """sum_l structure[i][j][l] basis[l] is basis[i] basis[j], and the unit
    coordinates give the identity matrix.  Over an etale field K the basis
    and structure are over K, and the unit is a vector over Q in the basis
    kappa_l b_k, which is read back to K by its flat coordinates."""
    center = center_algebra(polarize(make()))
    field, n, basis = center.field, center.dim_space, center.basis
    m = field.absolute_degree
    assert len(basis) == center.dim == center.tensor.dim // m
    a, den = center.unit
    unit = [field.from_flat([Fraction(v, den) for v in a[k:k + m]]) for k in range(0, len(a), m)]

    def combination(coords):
        return tuple(
            tuple(sum((c * b[r][s] for c, b in zip(coords, basis)), field.zero) for s in range(n))
            for r in range(n)
        )

    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert combination(center.structure[i][j]) == mat_mul(bi, bj)
    assert combination(unit) == eye(field, n)


def test_center_reads_coordinates_and_splitting_stays_small(monkeypatch):
    """The center's coordinates are read off its basis, with no solve and
    one elimination; splitting multiplies structure-constant coordinates,
    so the only matrix products are the center's m^2."""
    counts = Counter()
    for name in ("solve", "rref", "mat_mul"):
        original = getattr(linalg, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, counted)
    phi = diag(list(range(1, 17)), 3)
    center_algebra(polarize(phi))
    assert counts["solve"] == 0 and counts["rref"] == 1
    counts.clear()
    assert len(krull_schmidt_decompose(phi).components) == 16
    assert counts["mat_mul"] <= 256 and counts["solve"] <= 64


def test_reconstruction_identity():
    for phi in [diag([1, 2, 3], 3), orthogonal_sum(diag([1, 2], 3), xy2())]:
        dec = krull_schmidt_decompose(phi)
        recon = apply_change_of_basis(phi, dec.change_of_basis)
        total = None
        for c in dec.components:
            total = c.form if total is None else orthogonal_sum(total, c.form)
        assert recon == total


def test_decomposition_is_deterministic():
    phi = orthogonal_sum(diag([1, 2], 3), xy2())
    first = krull_schmidt_decompose(phi)
    for _ in range(4):
        again = krull_schmidt_decompose(phi)
        assert [c.form.body for c in again.components] == [
            c.form.body for c in first.components
        ]
        assert again.change_of_basis == first.change_of_basis


def test_component_multiset_additive_over_sums():
    phi1, phi2 = diag([1, 2], 3), xy2()
    whole = krull_schmidt_decompose(orthogonal_sum(phi1, phi2))
    parts = list(krull_schmidt_decompose(phi1).components) + list(
        krull_schmidt_decompose(phi2).components
    )
    def key(c):
        return (c.dim, tuple((e, v.as_rational()) for e, v in c.form.body.sorted_terms()))

    assert sorted(key(c) for c in whole.components) == sorted(key(c) for c in parts)


def test_degenerate_input_rejected():
    degen = HomogeneousForm(QQ, 3, 2, var(2, 0) ** 3)
    with pytest.raises(DegenerateInput):
        krull_schmidt_decompose(degen)
    with pytest.raises(DegenerateInput):
        is_absolutely_indecomposable(degen)


def test_low_degree_rejected():
    with pytest.raises(DegreeTooSmall):
        krull_schmidt_decompose(diag([1, 1], 2))
    with pytest.raises(DegreeTooSmall):
        is_absolutely_indecomposable(diag([1, 1], 2))


def unitriangular(n, rng):
    """Upper unitriangular with entries +-1 above the diagonal."""
    rows = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)]
            for i in range(n)]
    return LinearMap.from_rationals(QQ, rows)


def triangular(n, rng):
    """Upper triangular with diagonal entries from 2, -3, 1/2 and 5/3: the
    center's basis matrices then have rational entries."""
    rows = [[rng.choice((2, -3, Fraction(1, 2), Fraction(5, 3))) if i == j
             else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    return LinearMap.from_rationals(QQ, rows)


@pytest.mark.parametrize("seed", range(6))
def test_component_dims_survive_a_change_of_basis(seed):
    rng = random.Random(seed)
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 5))]
    tits_diag = orthogonal_sum(tits_cubic(rng.choice((2, 3, 5))).form, diag(coeffs[:2], 3))
    for phi, dims in ((diag(coeffs, 3), [1] * len(coeffs)),
                      (tits_diag, [1] * len(coeffs[:2]) + [3])):
        changed = apply_change_of_basis(phi, unitriangular(phi.nvars, rng))
        scaled = apply_change_of_basis(phi, triangular(phi.nvars, rng))
        for form in (phi, changed, scaled):
            assert sorted(c.dim for c in krull_schmidt_decompose(form).components) == dims


@pytest.mark.parametrize("field, coeffs, tits, seed, dims", [
    (SQRT2, [1, -2, 3], None, 0, [1, 1, 1]),
    (SQRT2, [2, -1], 1, 1, [1, 1, 3]),
    (CBRT2, [1, 2, -3], None, 0, [1, 1, 1]),
    (CBRT2, [-1, 3], 2, 1, [1, 1, 3]),
    (TOWER, [1, -2], None, 4, [1, 1]),
    (TOWER, [2], 1, 0, [1, 3]),
    (HALF, [1, 2, -3], None, 0, [1, 1, 1]),
    (HALF, [2], 1, 0, [1, 3]),
], ids=["sqrt2", "sqrt2-tits", "cbrt2", "cbrt2-tits", "tower", "tower-tits", "half", "half-tits"])
def test_basis_changed_forms_over_etale_fields_decompose(field, coeffs, tits, seed, dims):
    """A change of basis fills the center's basis with field elements, so
    splitting it needs certification over the field; the decomposition
    checks its reconstruction identity and change of basis itself, and the
    idempotents, whose coordinates over Q have denominators, are complete."""
    phi = changed_over(field, coeffs, tits, seed)
    dec = krull_schmidt_decompose(phi)
    assert sorted(c.dim for c in dec.components) == dims
    total = dec.idempotents[0]
    for e in dec.idempotents:
        assert mat_mul(e, e) == e
    for e in dec.idempotents[1:]:
        total = tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(total, e))
    assert total == eye(field, phi.nvars)


def test_transfer_along_a_relative_quadratic_extension():
    """<1, 2> over Q(sqrt 2)(sqrt 3), pushed down to Q(sqrt 2): two
    components of dimension 2."""
    k = field_extend(SQRT2, [-3, 0, 1])
    phi = transfer_form(k, [1, 0], diagonal_form([1, 2], 3, field=k).form)
    assert [c.dim for c in krull_schmidt_decompose(phi).components] == [2, 2]


def test_splitting_over_sqrt2_makes_no_field_element_products(monkeypatch):
    """The splitting multiplies the center over Q in ints: no
    product inside `_try_split` goes through `EtaleAlgebra._mul`."""
    calls, inside = [], []
    mul, try_split = EtaleAlgebra._mul, decompose._try_split
    monkeypatch.setattr(EtaleAlgebra, "_mul",
                        lambda self, a, b: calls.append(bool(inside)) or mul(self, a, b))

    def counted(*args):
        inside.append(1)
        try:
            return try_split(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(decompose, "_try_split", counted)
    dec = krull_schmidt_decompose(changed_over(SQRT2, [2, -1], 1, 1))
    assert sorted(c.dim for c in dec.components) == [1, 1, 3]
    assert True not in calls


def test_column_bases_over_sqrt2_read_the_integer_matrices(monkeypatch):
    """The component bases of <i + t>, i = 0..7, over Q(sqrt 2) = Q(t) are
    eliminated from the idempotents' int rows: `_column_basis` turns no
    field element back into ints (`linalg._integer_row`)."""
    calls, inside = [], []
    integer_row, column_basis = linalg._integer_row, decompose._column_basis
    monkeypatch.setattr(linalg, "_integer_row",
                        lambda *a: calls.append(bool(inside)) or integer_row(*a))

    def counted(*args):
        inside.append(1)
        try:
            return column_basis(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(decompose, "_column_basis", counted)
    n, t = 8, SQRT2.gen
    phi = HomogeneousForm(SQRT2, 3, n, Polynomial.from_pairs(SQRT2, n, [
        (tuple(3 if j == i else 0 for j in range(n)), SQRT2.from_rational(i) + t)
        for i in range(n)]))
    assert [c.dim for c in krull_schmidt_decompose(phi).components] == [1] * n
    assert True not in calls


def test_center_and_field_arithmetic_make_no_field_element_operations(monkeypatch):
    """The center over Q(sqrt 2) and Q(omega)(cbrt 2), the tensor of a new
    field and an inverse run on ints: no FieldElement sum, difference or
    product, and no etale product or inverse, is made inside them."""
    calls, inv = Counter(), EtaleAlgebra._inv
    for cls, name in ((FieldElement, "__mul__"), (FieldElement, "__add__"),
                      (FieldElement, "__sub__"), (EtaleAlgebra, "_mul"), (EtaleAlgebra, "_inv")):
        def counted(*args, _original=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cls, name, counted)
    thetas = [polarize(sqrt2_pair()), polarize(changed_over(TOWER, [1, 2], None, 0))]
    x = TOWER.from_flat([Fraction(k + 1, 2) for k in range(6)])
    calls.clear()
    for theta in thetas:
        center_algebra(theta)
    omega = field_extend(QQ, [1, 1, 1])
    field_extend(omega, [omega.from_rational(-2), omega.zero, omega.zero, omega.one]).tensor()
    field_extend(field_extend(QQ, [-2, 0, 1]), [-3, 0, 1]).tensor()
    y = inv(TOWER, x)
    assert not calls
    assert x * y == TOWER.one


@pytest.mark.parametrize("make", [tits_diag_changed, lambda: changed_over(SQRT2, [2, -1], 1, 1)],
                         ids=["q", "sqrt2"])
def test_decomposition_makes_no_field_element_arithmetic(monkeypatch, make):
    """A basis-changed Tits-plus-diagonal cubic decomposes on ints: no
    FieldElement sum, difference, negation, product or inverse and no
    scalar product or inverse of the field, over Q and over Q(sqrt 2).
    The polarization's `entries` view is never built, and the only terms
    views read are the components'.  The component bases stay int columns
    through the invertibility test and the composition: no field element
    is turned back into ints (`linalg._integer_row`, `integral_coordinates`
    in `forms` and `poly`)."""
    phi = make()
    decompose._is_field(phi.field)
    calls, views, terms = Counter(), [], Polynomial.terms.fget
    for cls, name in ((FieldElement, "__add__"), (FieldElement, "__sub__"),
                      (FieldElement, "__neg__"), (FieldElement, "__mul__"),
                      (FieldElement, "inv"), (FieldElement, "__truediv__"),
                      (FieldElement, "__pow__"), (type(QQ), "_mul"), (type(QQ), "_inv"),
                      (EtaleAlgebra, "_mul"), (EtaleAlgebra, "_inv"),
                      (linalg, "_integer_row"), (forms, "integral_coordinates"),
                      (poly, "integral_coordinates")):
        def counted(*args, _original=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cls, name, counted)
    monkeypatch.setattr(forms.SymmetricTensor, "entries",
                        property(lambda theta: calls.update(["entries"])))
    monkeypatch.setattr(Polynomial, "terms",
                        property(lambda p: views.append(p.nvars) or terms(p)))
    dec = krull_schmidt_decompose(phi)
    monkeypatch.undo()
    assert sorted(c.dim for c in dec.components) == [1, 1, 3]
    assert not calls
    assert views and max(views) < phi.nvars


def test_blocks_of_the_fields_dimension_are_not_searched(monkeypatch):
    """Over a field K a block of Q-dimension [K:Q] is K*e: the splitting
    takes no minimal polynomial on it."""
    seen, minpoly = [], decompose._Block.minpoly
    monkeypatch.setattr(decompose._Block, "minpoly",
                        lambda self, z: seen.append((self.dim, self.field_degree)) or minpoly(self, z))
    phi = diagonal_form([TOWER.from_rational(i) + TOWER.gen for i in (1, 2, 3)], 3, field=TOWER).form
    assert len(primitive_idempotents(center_algebra(polarize(phi)))) == 3
    assert (6, 6) not in seen and (18, 6) in seen


def test_fields_are_told_from_products_of_fields():
    """The coefficient field is certified a field from its own tensor; a
    product of fields, also one level up a tower, is not."""
    for k in (QQ, SQRT2, CBRT2, HALF, TOWER):
        assert decompose._is_field(k)
    for k in (field_extend(QQ, [-1, 0, 1]), field_extend(SQRT2, [-2, 0, 1])):
        assert not decompose._is_field(k)


def transfer_pair(k):
    """<1, 2> over k pushed down to Q along the coefficient of 1."""
    return transfer_form(k, [1] + [0] * (k.degree - 1), diagonal_form([1, 2], 3, field=k).form)


@pytest.mark.parametrize("k", [SQRT2, CBRT2, T3], ids=["sqrt2", "cbrt2", "t3-t-3"])
def test_field_blocks_are_certified_at_their_first_generator(monkeypatch, k):
    """The transfer of <1, 2> along a field k of degree m = 2 or 3 has the
    center k x k over Q.  One minimal polynomial splits it into two blocks
    of dimension m, and one more certifies each block a field: a generator
    whose minimal polynomial is irreducible of degree m.  No nilradical
    rank is taken and sympy is not called.  The decomposition records the
    three rounds and three minimal polynomials, outside its equality and
    its JSON."""
    rounds, calls, try_split = [], Counter(), decompose._try_split

    def counted(block, record):
        before = record["minimal_polynomials"]
        out = try_split(block, record)
        rounds.append((block.dim, record["minimal_polynomials"] - before, out is None))
        return out

    monkeypatch.setattr(decompose, "_try_split", counted)
    rank = decompose._Block.nilradical_rank
    monkeypatch.setattr(decompose._Block, "nilradical_rank",
                        lambda self: calls.update(["nilradical_rank"]) or rank(self))
    monkeypatch.setattr(decompose, "_factor", lambda f: calls.update(["factor"]))
    dec = krull_schmidt_decompose(transfer_pair(k))
    m = k.degree
    assert [c.dim for c in dec.components] == [m, m]
    assert rounds == [(2 * m, 1, False), (m, 1, True), (m, 1, True)]
    assert not calls
    assert (dec.splitting_rounds, dec.minimal_polynomials, dec.sympy_factored) == (3, 3, False)
    assert dataclasses.replace(dec, splitting_rounds=0, minimal_polynomials=0) == dec
    assert "splitting_rounds" not in jsonio.dumps(jsonio.encode_decomposition(dec))


@pytest.mark.parametrize("make, ranks, absolute", [
    (lambda: det_norm(3).form, 0, True),
    (lambda: cayley_dickson_quartic(split_jordan_q4(), 2).form, 0, True),
    (lambda: tits_cubic(2).form, 0, True),
    (lambda: transfer_form(CBRT2, [1, 0, 0], diagonal_form([1], 3, field=CBRT2).form), 1, False),
], ids=["det3", "cayley-dickson", "tits-2", "transfer-cbrt2"])
def test_a_center_of_dimension_one_takes_no_nilradical_rank(monkeypatch, make, ranks, absolute):
    """A center of dimension 1 over the coefficient field K is K * 1, whose
    nilradical rank is [K:Q], so det-3, the Cayley-Dickson quartic and the
    Tits cubic (the norm of Q(2^(1/3)), a product of three linear forms
    over the algebraic closure) take no trace-form rank in
    `krull_schmidt_decompose` or `is_absolutely_indecomposable`.  The
    transfer of <1> along Q(2^(1/3)) has that field as its center, of
    dimension 3, and still takes one in each, which reads it not
    absolutely indecomposable."""
    calls, rank = [], decompose._Block.nilradical_rank
    monkeypatch.setattr(decompose._Block, "nilradical_rank",
                        lambda self: calls.append(self.dim) or rank(self))
    phi = make()
    dec = krull_schmidt_decompose(phi)
    assert len(dec.components) == 1
    assert (dec.nilradical_rank == phi.field.absolute_degree) is absolute
    assert len(calls) == ranks
    assert is_absolutely_indecomposable(phi) is absolute
    assert len(calls) == 2 * ranks


@pytest.mark.parametrize("make, blocks", [
    (lambda: diag([1, 2, 3, 5], 3), 4),
    (lambda: transfer_pair(CBRT2), 2),
    (lambda: changed_over(SQRT2, [2, -1], 1, 1), 3),
    (lambda: diagonal_form([TOWER.from_rational(i) + TOWER.gen for i in (1, 2, 3)], 3,
                           field=TOWER).form, 3),
], ids=["diag-q", "transfer-cbrt2", "sqrt2-tits", "tower"])
def test_blocks_of_the_fields_dimension_are_read_off_the_trace(monkeypatch, make, blocks):
    """An idempotent e whose block eC has the Q-dimension m of the
    coefficient field is primitive, and tr L_e tells so before the block is
    made: no block of dimension m is built."""
    made, init = [], decompose._Block.__init__

    def counted(self, tensor, unit, basis, field_degree):
        made.append((len(basis), field_degree))
        init(self, tensor, unit, basis, field_degree)

    phi = make()
    decompose._is_field(phi.field)
    monkeypatch.setattr(decompose._Block, "__init__", counted)
    assert len(primitive_idempotents(center_algebra(polarize(phi)))) == blocks
    assert made and all(dim != m for dim, m in made)


def test_a_reducible_minimal_polynomial_of_full_degree_splits():
    """In Q[t]/((t^2 - 2)(t^2 - 3)) = Q(sqrt 2) x Q(sqrt 3), t has a
    squarefree minimal polynomial of the full degree 4 with no rational
    root, but the divisor test does not prove it irreducible, so it
    certifies nothing: t^2 splits the block."""
    k = field_extend(QQ, [6, 0, -5, 0, 1])
    t = k.tensor()
    record = Counter()
    block = decompose._Block(t, ([1, 0, 0, 0], 1), decompose._unit_vectors(4), 1)
    split = decompose._try_split(block, record)
    assert split is not None and len(split) == 2
    assert record == {"rounds": 1, "minimal_polynomials": 3}
    assert not decompose._is_field(k)


def _changed_transfer(kind, seed):
    """A diagonal cubic over Q, or the transfer to Q of one over a field of
    degree 2 or 3 along a nonzero functional, after a seeded upper
    unitriangular change of basis; and its sorted component dimensions."""
    rng = random.Random("%s:%d" % (kind, seed))
    if kind == "q":
        n = rng.randint(2, 6)
        phi, dims = diag([rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(n)], 3), [1] * n
    else:
        k = {"sqrt2": SQRT2, "cbrt2": CBRT2, "t3-t-3": T3}[kind]
        m, n = k.degree, rng.randint(1, 3 if k.degree == 2 else 2)
        coeffs = [k.element([rng.choice((-2, -1, 1, 3))] + [rng.choice((-1, 0, 1))
                                                           for _ in range(m - 1)])
                  for _ in range(n)]
        s = [0] * m
        while not any(s):
            s = [rng.choice((-1, 0, 1, 2)) for _ in range(m)]
        phi, dims = transfer_form(k, s, diagonal_form(coeffs, 3, field=k).form), [m] * n
    return apply_change_of_basis(phi, unitriangular(phi.nvars, rng)), dims


@pytest.mark.parametrize("kind", ["q", "sqrt2", "cbrt2", "t3-t-3"])
@pytest.mark.parametrize("seed", range(4))
def test_transfers_and_diagonal_forms_match_the_per_component_oracle(kind, seed):
    """Components, idempotents and change of basis of transfers and
    diagonal forms in a changed basis are those of `oracles`, which
    composes phi once per component and checks the reconstruction apart."""
    phi, dims = _changed_transfer(kind, seed)
    dec = krull_schmidt_decompose(phi)
    comps, p, idems = per_component_decomposition(phi)
    assert sorted(c.dim for c in dec.components) == dims
    assert [(c.dim, c.basis_columns, c.form) for c in dec.components] == comps
    assert dec.change_of_basis == p
    assert dec.idempotents == idems


@pytest.mark.parametrize("k", [field_extend(QQ, [-1, 0, 1]), field_extend(SQRT2, [-2, 0, 1])],
                         ids=["t2-minus-1", "sqrt2-t2-minus-2"])
def test_a_product_of_fields_is_refused(k):
    """Over Q[t]/(t^2 - 1), and over Q(sqrt 2)[t]/(t^2 - 2), the components
    of <1, t, 3> are not free modules: the decomposition stops with
    ValueError."""
    phi = diagonal_form([k.one, k.gen, k.from_rational(3)], 3, field=k).form
    with pytest.raises(ValueError, match="decomposition needs a field"):
        krull_schmidt_decompose(phi)


def test_split_through_a_nilradical():
    """x y^2 has the center Q[n]/(n^2), so the sum with two more summands
    has idempotents that are lifted through the nilradical."""
    phi = orthogonal_sum(orthogonal_sum(xy2(), diag([2], 3)), xy2())
    for form in (phi, apply_change_of_basis(phi, triangular(5, random.Random(1)))):
        dec = krull_schmidt_decompose(form)
        assert sorted(c.dim for c in dec.components) == [1, 2, 2]


def _as_monic(f):
    fr = [Fraction(c) if isinstance(c, int) else c.as_rational() for c in f]
    return tuple(c / fr[-1] for c in fr)


@pytest.mark.parametrize("seed", range(30))
def test_integer_univariate_steps_match_the_field_path(seed):
    """Yun's groups, the coprime pieces and the CRT idempotent polynomials on
    primitive integer lists against the same steps on field elements, for
    products of powers of non-monic linear and quadratic factors."""
    rng = random.Random(seed)
    mu = [1]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            f = [rng.choice((-5, -3, -1, 1, 2, 4)), rng.randint(1, 4)]
        else:
            f = [rng.choice((-6, -2, 1, 3, 5)), rng.randint(-3, 3), rng.randint(1, 3)]
        for _ in range(rng.randint(1, 3)):
            mu = decompose._int_mul(mu, f)
    field = FieldPolys(QQ)
    mu_q = [QQ.from_rational(c) for c in mu]
    assert ([_as_monic(g) for g in decompose._yun_squarefree_groups(mu)]
            == [_as_monic(g) for g in field.yun_squarefree_groups(mu_q)])
    pieces = decompose._coprime_pieces(mu)
    assert [_as_monic(p) for p in pieces] == [_as_monic(p) for p in
                                              field.coprime_pieces(mu_q)]
    assert (_as_monic(decompose._squarefree_part(mu))
            == _as_monic(field.squarefree_part(mu_q)))
    if len(pieces) >= 2:
        got = [[Fraction(c, den) for c in e] for e, den in decompose._crt_idempotents(pieces)]
        pieces_q = [[QQ.from_rational(c) for c in p] for p in pieces]
        want = [[c.as_rational() for c in e] for e, _ in field.crt_idempotents(pieces_q)]
        assert got == want


def test_certification_outside_the_divisor_bound_factors_with_sympy():
    """(t - 10^9)(t^2 + 1) has a rational root that the bounded divisor test
    does not look for, so it is not certified irreducible: sympy splits it."""
    f = decompose._int_mul([-(10**9), 1], [1, 0, 1])
    assert decompose._rational_roots(f) == []
    assert sorted(decompose._factor(f), key=len) == [[-(10**9), 1], [1, 0, 1]]


@pytest.mark.parametrize("roots, other", [
    ([Fraction(3, 2), Fraction(-5, 3), Fraction(7)], []),
    ([Fraction(-1, 6), Fraction(2, 5)], [1, 0, 1]),
    ([Fraction(0), Fraction(-12, 7)], [2, 1, 3]),
    ([], [12, 0, 0, 35]),
])
def test_rational_roots_list_the_divisors_of_each_end_once(monkeypatch, roots, other):
    """The roots of a product of linear factors q t - p and a factor with no
    rational root, from one divisor list per end coefficient."""
    f = other or [1]
    for r in roots:
        f = decompose._int_mul(f, [-r.numerator, r.denominator])
    calls = []
    divisors = decompose._divisors
    monkeypatch.setattr(decompose, "_divisors", lambda n: calls.append(n) or divisors(n))
    assert decompose._rational_roots(f) == sorted(roots)
    assert len(calls) == 2


def test_split_albert_norm_is_one_27_dimensional_component():
    phi = split_albert_norm().form
    t0 = time.perf_counter()
    dec = krull_schmidt_decompose(phi)
    elapsed = time.perf_counter() - t0
    assert [c.dim for c in dec.components] == [27]
    assert dec.components[0].form.body == phi.body
    assert elapsed < 30, "decomposing the Albert norm took %.1f s" % elapsed


@pytest.mark.parametrize("over", ["q", "sqrt2"])
def test_idempotent_column_bases_are_the_rref_of_their_columns(over):
    """Each primitive idempotent comes with the reduced row echelon form of
    its columns, computed from the integer matrix as int columns: read as
    field elements, the very tuples `linalg.rref` gives on the
    field-element columns, after a change of basis that fills the
    idempotents in and gives their primitive integer column rows pivots
    other than 1."""
    field = QQ if over == "q" else field_extend(QQ, [-2, 0, 1])
    phi = orthogonal_sum(tits_cubic(5).form, diag([2, -3], 3))
    if over != "q":
        phi = HomogeneousForm(field, 3, phi.nvars, Polynomial(
            field, phi.nvars, {e: field.from_rational(c.as_rational())
                               for e, c in phi.body.terms.items()}))
    n = phi.nvars
    f = LinearMap.from_rationals(field, [[1 if i == j else (3 if j == i + 1 else 0)
                                          for j in range(n)] for i in range(n)])
    center = center_algebra(polarize(apply_change_of_basis(phi, f)))
    for e, basis in primitive_idempotents(center):
        red, pivots = linalg.rref(field, [list(col) for col in zip(*e)])
        assert ([decompose._column_elements(field, col, n) for col in basis]
                == [tuple(red[i]) for i in range(len(pivots))])
        assert any(x != field.zero and x != field.one for row in e for x in row)


def _counting(monkeypatch, counts):
    """Count the calls of polarize (wherever it is looked up),
    center_algebra and Polynomial.compose."""
    polarize_fn, center_fn, compose = forms.polarize, decompose.center_algebra, Polynomial.compose

    def counted_polarize(*args):
        counts["polarize"] += 1
        return polarize_fn(*args)

    def counted_center(*args):
        counts["center_algebra"] += 1
        return center_fn(*args)

    def counted_compose(self, args):
        counts["compose"] += 1
        return compose(self, args)

    monkeypatch.setattr(forms, "polarize", counted_polarize)
    monkeypatch.setattr(decompose, "polarize", counted_polarize)
    monkeypatch.setattr(decompose, "center_algebra", counted_center)
    monkeypatch.setattr(Polynomial, "compose", counted_compose)


@pytest.mark.parametrize("make", [
    xy2, lambda: diag([1, 2, 3], 3), tits_diag_changed,
    lambda: changed_over(SQRT2, [2, -1], 1, 1),
], ids=["xy2", "diag3", "tits-diag-changed", "sqrt2-tits"])
def test_one_decomposition_polarizes_centers_and_composes_once(monkeypatch, make):
    """The radical and the center share one polarization, and one
    composition phi(P' y) gives every component and the reconstruction
    check."""
    phi = make()
    counts = Counter()
    _counting(monkeypatch, counts)
    krull_schmidt_decompose(phi)
    assert counts == {"polarize": 1, "center_algebra": 1, "compose": 1}


def _changed_sum(k, seed):
    """A random diagonal cubic, or a Tits cubic plus one, over k, after a
    random upper unitriangular change of basis; t is the generator of k,
    and 1/2 over Q."""
    rng = random.Random(seed)
    t = QQ.from_rational(Fraction(1, 2)) if k == QQ else k.gen
    coeffs = [k.from_rational(rng.choice((-3, -2, -1, 1, 2, 3)))
              + (t if rng.random() < 0.5 else k.zero) for _ in range(rng.randint(1, 4))]
    phi = diagonal_form(coeffs, 3, field=k).form
    if rng.random() < 0.5:
        phi = orthogonal_sum(tits_cubic(k.from_rational(rng.choice((2, 3, 5))) + t).form, phi)
    n = phi.nvars
    rows = [[k.one if i == j else rng.choice((k.zero, k.one, -k.one, t)) if j > i
             else k.zero for j in range(n)] for i in range(n)]
    return apply_change_of_basis(phi, LinearMap(k, rows))


@pytest.mark.parametrize("k", [QQ, SQRT2, CBRT2], ids=["q", "sqrt2", "cbrt2"])
@pytest.mark.parametrize("seed", range(5))
def test_one_composition_matches_a_composition_per_component(k, seed):
    """Components, idempotents and change of basis read off phi(P' y) are
    those of composing phi once per component (`oracles`)."""
    phi = _changed_sum(k, seed)
    dec = krull_schmidt_decompose(phi)
    comps, p, idems = per_component_decomposition(phi)
    assert [(c.dim, c.basis_columns, c.form) for c in dec.components] == comps
    assert dec.change_of_basis == p
    assert dec.idempotents == idems


def test_non_orthogonal_component_bases_fail_the_reconstruction(monkeypatch):
    """Bases that span the space but are not orthogonal for phi give a term
    of phi(P' y) that mixes two blocks."""
    phi = diag([1, 2], 3)
    idems = primitive_idempotents(center_algebra(polarize(phi)))
    skewed = [(idems[0][0], [({0: 1, 1: 1}, 1)]), (idems[1][0], [({1: 1}, 1)])]
    monkeypatch.setattr(decompose, "primitive_idempotents", lambda center, record: skewed)
    with pytest.raises(RuntimeError, match="reconstruction identity failed"):
        krull_schmidt_decompose(phi)


def test_absolute_verdict_is_kept_for_a_single_component():
    """With one component the decomposition keeps the center's dimension and
    nilradical rank, and so the verdict of `is_absolutely_indecomposable`;
    with more it keeps no verdict."""
    transfer = transfer_form(CBRT2, [1, 0, 0], diagonal_form([1], 3, field=CBRT2).form)
    for phi, verdict in ((xy2(), True), (transfer, False), (tits_cubic(SQRT2.gen).form, True)):
        dec = krull_schmidt_decompose(phi)
        assert len(dec.components) == 1
        assert dec.absolutely_indecomposable is verdict is is_absolutely_indecomposable(phi)
        assert dec.center_dim == center_algebra(polarize(phi)).dim
    dec = krull_schmidt_decompose(diag([1, 2], 3))
    assert dec.nilradical_rank is None and dec.absolutely_indecomposable is None
    assert dec.center_dim == 2
