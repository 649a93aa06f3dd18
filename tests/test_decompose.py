import random
import time
from fractions import Fraction

import pytest

from formforge import (
    DegenerateInput,
    DegreeTooSmall,
    HomogeneousForm,
    LinearMap,
    Polynomial,
    QQ,
    apply_change_of_basis,
    center_algebra,
    is_absolutely_indecomposable,
    krull_schmidt_decompose,
    orthogonal_sum,
    polarize,
    primitive_idempotents,
    split_albert_norm,
    tits_cubic,
)


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
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), QQ.from_rational(0)) for j in range(n))
        for i in range(n)
    )


def as_fracs(m):
    return tuple(tuple(x.as_rational() for x in row) for row in m)


def test_split_cubic_center_is_two_dimensional():
    center = center_algebra(polarize(diag([1, 2], 3)))
    assert center.dim == 2
    idems = primitive_idempotents(center)
    assert {as_fracs(e) for e in idems} == {
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
    dec = krull_schmidt_decompose(diag([1, 2, 3], 3))
    n = 3
    total = [[Fraction(0)] * n for _ in range(n)]
    for e in dec.idempotents:
        ef = as_fracs(e)
        for i in range(n):
            for j in range(n):
                total[i][j] += ef[i][j]
        assert as_fracs(mat_mul(e, e)) == ef
    assert total == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a in range(len(dec.idempotents)):
        for b in range(a + 1, len(dec.idempotents)):
            prod = mat_mul(dec.idempotents[a], dec.idempotents[b])
            assert all(x.is_zero() for row in prod for x in row)


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


@pytest.mark.parametrize("seed", range(6))
def test_component_dims_survive_a_change_of_basis(seed):
    rng = random.Random(seed)
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 5))]
    tits_diag = orthogonal_sum(tits_cubic(rng.choice((2, 3, 5))).form, diag(coeffs[:2], 3))
    for phi, dims in ((diag(coeffs, 3), [1] * len(coeffs)),
                      (tits_diag, [1] * len(coeffs[:2]) + [3])):
        changed = apply_change_of_basis(phi, unitriangular(phi.nvars, rng))
        for form in (phi, changed):
            assert sorted(c.dim for c in krull_schmidt_decompose(form).components) == dims


def test_split_albert_norm_is_one_27_dimensional_component():
    phi = split_albert_norm().form
    t0 = time.perf_counter()
    dec = krull_schmidt_decompose(phi)
    elapsed = time.perf_counter() - t0
    assert [c.dim for c in dec.components] == [27]
    assert dec.components[0].form.body == phi.body
    assert elapsed < 30, "decomposing the Albert norm took %.1f s" % elapsed
