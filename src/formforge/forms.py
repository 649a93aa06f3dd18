"""Homogeneous forms, symmetric tensors, and the polarization dictionary.

In characteristic 0 a degree-d form and its symmetric d-linear polarization
carry the same data; the conversions here are exact and inverse to each
other.  The radical and all isometry-level operations live at this layer.

A `SymmetricTensor` stores its entries in ints, as a polynomial stores its
terms: `polarize` reads them off the form's packed integers, and
`depolarize` and `tensor_product` work on them without field elements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Sequence

from . import linalg
from .coeffield import FieldElement, RationalField, integral_coordinates
from .poly import Polynomial, _pack, check_degree


class DimensionMismatch(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


class ZeroFunctional(ValueError):
    pass


class Singular(ValueError):
    """A change of basis must be invertible."""


class HomogeneousForm:
    """A form of degree d in n variables, stored as its polynomial."""

    __slots__ = ("field", "degree", "nvars", "body")

    def __init__(self, field, degree: int, nvars: int, body: Polynomial):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if body.field != field or body.nvars != nvars:
            raise TypeError("body does not match the declared ring")
        if not body.is_homogeneous(degree) and not body.is_zero():
            raise ValueError("body is not homogeneous of degree %d" % degree)
        self.field = field
        self.degree = degree
        self.nvars = nvars
        self.body = body

    @staticmethod
    def from_body(degree: int, body: Polynomial) -> "HomogeneousForm":
        return HomogeneousForm(body.field, degree, body.nvars, body)

    def eval(self, point) -> FieldElement:
        return self.body.eval(point)

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (
            self.field == other.field
            and self.degree == other.degree
            and self.nvars == other.nvars
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.degree, self.nvars, self.body))

    def __repr__(self):
        return "Form(d=%d, n=%d, %r)" % (self.degree, self.nvars, self.body)


class SymmetricTensor:
    """Entries indexed by sorted index tuples i1 <= ... <= id, zeros omitted,
    stored as {index: numerator} over one positive denominator, coprime to
    the numerators taken together (`int_entries`): a nonzero int over Q, the
    flat int vector over an etale algebra.  `entries` is a read-only view of
    field elements, built on first read and cached."""

    __slots__ = ("field", "degree", "dim", "_nums", "_den", "_entries")

    def __init__(self, field, degree: int, dim: int, entries: dict):
        clean = {}
        for idx, val in entries.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError("index %r has wrong arity" % (idx,))
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError("index %r out of range" % (idx,))
            if tuple(sorted(idx)) != idx:
                raise ValueError("index %r is not sorted" % (idx,))
            if val.field != field:
                raise TypeError("mixed-field arithmetic: entry %r is not over %r" % (val, field))
            if not val.is_zero():
                clean[idx] = field.flat(val)
        # canonical: no factor of the lcm denominator divides every numerator
        ints, den = integral_coordinates([q for v in clean.values() for q in v])
        if not isinstance(field, RationalField):
            m = field.absolute_degree
            ints = [ints[k:k + m] for k in range(0, len(ints), m)]
        self.field, self.degree, self.dim = field, degree, dim
        self._nums, self._den, self._entries = dict(zip(clean, ints)), den, None

    @classmethod
    def _from_nums(cls, field, degree: int, dim: int, nums: dict, den: int):
        """The tensor of the nonzero numerators nums over den, made canonical."""
        rational = isinstance(field, RationalField)
        g = gcd(den, *(nums.values() if rational else (x for v in nums.values() for x in v)))
        if g != 1:
            nums = {idx: v // g if rational else [x // g for x in v] for idx, v in nums.items()}
        theta = cls.__new__(cls)
        theta.field, theta.degree, theta.dim = field, degree, dim
        theta._nums, theta._den, theta._entries = nums, den // g, None
        return theta

    def int_entries(self):
        """(nums, den): the entries as {index: numerator} over den; read-only."""
        return self._nums, self._den

    @property
    def entries(self) -> dict:
        """{index: nonzero field element}; read-only."""
        if self._entries is None:
            den, rational = self._den, isinstance(self.field, RationalField)
            self._entries = {idx: self.field.from_flat([Fraction(x, den) for x in
                                                        ((v,) if rational else v)])
                             for idx, v in self._nums.items()}
        return self._entries

    def entry(self, idx) -> FieldElement:
        return self.entries.get(tuple(sorted(idx)), self.field.zero)

    def __eq__(self, other):
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        return (
            self.field == other.field
            and self.degree == other.degree
            and self.dim == other.dim
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.degree, self.dim, self._den, frozenset(self._nums)))

    def __repr__(self):
        return "Tensor(d=%d, dim=%d, %d entries)" % (self.degree, self.dim, len(self._nums))


class LinearMap:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Sequence[Sequence[FieldElement]]):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def from_rationals(field, rows) -> "LinearMap":
        return LinearMap(field, [[field.from_rational(x) for x in r] for r in rows])

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __repr__(self):
        return "LinearMap(%dx%d)" % (self.nrows, self.ncols)


# ---------------------------------------------------------------------------
# polarization


def _exponent_to_index(e) -> tuple:
    out = []
    for i, m in enumerate(e):
        out.extend([i] * m)
    return tuple(out)


def _index_to_exponent(idx, dim: int) -> tuple:
    e = [0] * dim
    for i in idx:
        e[i] += 1
    return tuple(e)


def _multiplicity_product(e) -> int:
    out = 1
    for m in e:
        out *= factorial(m)
    return out


def polarize(phi: HomogeneousForm) -> SymmetricTensor:
    """The symmetric d-linear form with theta(v,...,v) = phi(v).

    Computed coefficient-by-coefficient on the form's packed integers
    (`Polynomial.int_terms`): the entry on the index multiset with
    multiplicities m is coeff * prod(m_i!)/d!, so its numerator is the
    term's numerator times prod(m_i!), over the form's denominator times d!.
    """
    terms, den = phi.body.int_terms()
    rational = isinstance(phi.field, RationalField)
    nums = {}
    for e, c in terms:
        s = _multiplicity_product(e)
        nums[_exponent_to_index(e)] = c * s if rational else [s * x for x in c]
    return SymmetricTensor._from_nums(phi.field, phi.degree, phi.nvars, nums,
                                      den * factorial(phi.degree))


def depolarize(theta: SymmetricTensor) -> HomogeneousForm:
    """Restrict the tensor to the diagonal: phi(v) = theta(v,...,v).

    On the tensor's ints (`int_entries`): the term on the index multiset
    with multiplicities m has the coefficient d!/prod(m_i!) times the entry,
    an integer multiple of its numerator over the same denominator, packed
    as `Polynomial` keys."""
    d, n, field = theta.degree, theta.dim, theta.field
    check_degree(d)
    nums, den = theta.int_entries()
    gen = field.generator_keys()
    rational = isinstance(field, RationalField)
    df = factorial(d)
    terms = {}
    for idx, val in nums.items():
        e = _index_to_exponent(idx, n)
        s = df // _multiplicity_product(e)
        x = _pack(e) << gen.bits
        if rational:
            terms[x] = s * val
        else:
            for t, a in zip(gen.keys, val):
                if a:
                    terms[x | t] = s * a
    return HomogeneousForm(field, d, n, Polynomial._from_nums(field, n, terms, den))


# ---------------------------------------------------------------------------
# radical


def radical_equations(theta: SymmetricTensor) -> list:
    """The radical's equations as int dict rows: one per (d-1)-index rest,
    whose coefficient of x_j is the numerator of theta(rest, j)."""
    rows = {}
    for idx, val in theta._nums.items():
        for drop in range(theta.degree):
            rows.setdefault(idx[:drop] + idx[drop + 1 :], {})[idx[drop]] = val
    return [rows[rest] for rest in sorted(rows)]


def radical_of_tensor(theta: SymmetricTensor):
    """Basis of {x : theta(x, v2, ..., vd) = 0 for all v}."""
    return linalg.nullspace(theta.field, radical_equations(theta), theta.dim)


def radical(phi: HomogeneousForm):
    return radical_of_tensor(polarize(phi))


def is_nondegenerate(phi: HomogeneousForm) -> bool:
    return not radical(phi)


# ---------------------------------------------------------------------------
# sums, products, transfer, change of basis


def orthogonal_sum(phi1: HomogeneousForm, phi2: HomogeneousForm) -> HomogeneousForm:
    if phi1.degree != phi2.degree:
        raise DegreeMismatch("cannot sum forms of degrees %d and %d" % (phi1.degree, phi2.degree))
    if phi1.field != phi2.field:
        raise TypeError("forms over different fields")
    n = phi1.nvars + phi2.nvars
    body = phi1.body.embed(n, 0) + phi2.body.embed(n, phi1.nvars)
    return HomogeneousForm(phi1.field, phi1.degree, n, body)


def tensor_product(phi1: HomogeneousForm, phi2: HomogeneousForm) -> HomogeneousForm:
    """Product form on the tensor product space, built at the tensor level:
    (theta1 (x) theta2)((u1,v1),...,(ud,vd)) = theta1(u...) * theta2(v...)."""
    if phi1.degree != phi2.degree:
        raise DegreeMismatch(
            "cannot tensor forms of degrees %d and %d" % (phi1.degree, phi2.degree)
        )
    if phi1.field != phi2.field:
        raise TypeError("forms over different fields")
    field, d, n2 = phi1.field, phi1.degree, phi2.nvars
    nums1, den1 = polarize(phi1).int_entries()
    nums2, den2 = polarize(phi2).int_entries()
    # over an etale field the flat vectors multiply through its tensor, over
    # its denominator more
    kt = None if isinstance(field, RationalField) else field.tensor()
    entries = {}
    for a_idx, u in nums1.items():
        for b_idx, v in nums2.items():
            val = u * v if kt is None else kt.mul(u, v)
            if kt is not None and not any(val):
                continue
            for perm in set(itertools.permutations(b_idx)):
                entries[tuple(sorted(a * n2 + b for a, b in zip(a_idx, perm)))] = val
    den = den1 * den2 * (1 if kt is None else kt.den)
    return depolarize(SymmetricTensor._from_nums(field, d, phi1.nvars * n2, entries, den))


def coordinates_over_base(A, phi: HomogeneousForm, powers: int = 1) -> list:
    """Write phi(v), v_j = sum_i y_(j m + i) t^i, over the etale algebra A of
    degree m over k = A.base: for each k < powers, the m coordinate
    polynomials over k, in q m variables, of phi(v) t^k.  One composition
    over A gives phi(v); each power of t is one more scaling by t, and
    `Polynomial.base_coordinates` splits the packed form."""
    if phi.field != A:
        raise TypeError("form is not defined over the given algebra")
    m, q = A.degree, phi.nvars
    big = q * m
    basis_powers = [A.one]
    for _ in range(m - 1):
        basis_powers.append(basis_powers[-1] * A.gen)
    args = [
        Polynomial(A, big, {tuple(int(k == j * m + i) for k in range(big)): c
                            for i, c in enumerate(basis_powers)})
        for j in range(q)
    ]
    u = phi.body.compose(args)
    out = [u.base_coordinates()]
    for _ in range(powers - 1):
        u = u.scale(A.gen)
        out.append(u.base_coordinates())
    return out


def transfer_form(A, s: Sequence, phi: HomogeneousForm) -> HomogeneousForm:
    """Push a form over the etale algebra A down to the base field along the
    linear functional with values s on the power basis: the s-weighted sum
    of the coordinates of phi (`coordinates_over_base`).

    Variables are grouped per original variable: base variable j*m + i is the
    coefficient of basis element t^i inside original variable j.
    """
    base = A.base
    m = A.degree
    svals = [
        x if isinstance(x, FieldElement) else base.from_rational(x) for x in s
    ]
    if len(svals) != m:
        raise DimensionMismatch("functional needs %d values" % m)
    if all(v.is_zero() for v in svals):
        raise ZeroFunctional("the transfer functional must be nonzero")
    (coords,) = coordinates_over_base(A, phi)
    body = Polynomial.zero(base, phi.nvars * m)
    for p, si in zip(coords, svals):
        if not si.is_zero():
            body = body + p.scale(si)
    return HomogeneousForm(base, phi.degree, phi.nvars * m, body)


def transfer(A, s: Sequence, gamma: SymmetricTensor) -> SymmetricTensor:
    """Tensor-level transfer, via the form dictionary (exact in char 0)."""
    phi = depolarize(gamma)
    return polarize(transfer_form(A, s, phi))


def apply_change_of_basis(phi: HomogeneousForm, f: LinearMap) -> HomogeneousForm:
    """The form v -> phi(f(v)); f must be square and invertible.  Over an
    etale algebra that is not a field a nonzero determinant can be a zero
    divisor, so invertibility is decided by `linalg.is_invertible`."""
    n = phi.nvars
    if f.nrows != n or f.ncols != n:
        raise DimensionMismatch("change of basis must be %d x %d" % (n, n))
    if f.field != phi.field:
        raise TypeError("map over the wrong field")
    if not linalg.is_invertible(phi.field, f.rows):
        raise Singular("change of basis is not invertible")
    return substitute_vectors(phi, list(zip(*f.rows)))


def substitute_vectors(phi: HomogeneousForm, columns) -> HomogeneousForm:
    """phi restricted to the span of the given column vectors (not necessarily
    square); new variable i is the coefficient of columns[i].  A column is a
    sequence of field elements, or an int column (nums, den): the dict row
    nums of its nonzero numerators over the positive int den, {i: int} over
    Q and {i: flat int vector} over an etale field, as `linalg` takes rows.
    Argument k of the composition, sum_i columns[i][k] y_i, is packed
    straight from the numerators over the lcm of their denominators."""
    field, r = phi.field, len(columns)
    rational = isinstance(field, RationalField)
    gen = field.generator_keys()
    args = [({}, []) for _ in range(phi.nvars)]  # coordinate k: (key: num, dens)
    for i, col in enumerate(columns):
        nums, den = col if len(col) == 2 and isinstance(col[0], dict) else _int_column(field, col)
        x = _pack([int(j == i) for j in range(r)]) << gen.bits
        for k, v in nums.items():
            terms, dens = args[k]
            dens.append(den)
            if rational:
                terms[x] = (v, den)
            else:
                for t, a in zip(gen.keys, v):
                    if a:
                        terms[x | t] = (a, den)
    polys = []
    for terms, dens in args:
        D = lcm(*dens)
        polys.append(Polynomial._from_nums(field, r, {x: a * (D // den) for x, (a, den)
                                                      in terms.items()}, D))
    return HomogeneousForm(field, phi.degree, r, phi.body.compose(polys))


def _int_column(field, col) -> tuple:
    """The field elements col as an int column (nums, den)."""
    for x in col:
        if x.field != field:
            raise TypeError("mixed-field arithmetic: entry %r is not over %r" % (x, field))
    ints, den = integral_coordinates([q for x in col for q in field.flat(x)])
    m = field.absolute_degree
    if isinstance(field, RationalField):
        return {k: v for k, v in enumerate(ints) if v}, den
    return {k: ints[k * m:k * m + m] for k in range(len(col)) if any(ints[k * m:k * m + m])}, den
