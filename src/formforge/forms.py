"""Homogeneous forms, symmetric tensors, and the polarization dictionary.

In characteristic 0 a degree-d form and its symmetric d-linear polarization
carry the same data; the conversions here are exact and inverse to each
other.  The radical and all isometry-level operations live at this layer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Sequence

from . import linalg
from .coeffield import FieldElement
from .poly import Polynomial


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
    """Entries indexed by sorted index tuples i1 <= ... <= id, zeros omitted."""

    __slots__ = ("field", "degree", "dim", "entries")

    def __init__(self, field, degree: int, dim: int, entries: dict):
        self.field = field
        self.degree = degree
        self.dim = dim
        clean = {}
        for idx, val in entries.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError("index %r has wrong arity" % (idx,))
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError("index %r out of range" % (idx,))
            if tuple(sorted(idx)) != idx:
                raise ValueError("index %r is not sorted" % (idx,))
            if not val.is_zero():
                clean[idx] = val
        self.entries = clean

    def entry(self, idx) -> FieldElement:
        return self.entries.get(tuple(sorted(idx)), self.field.zero)

    def __eq__(self, other):
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        return (
            self.field == other.field
            and self.degree == other.degree
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.degree, self.dim, frozenset(self.entries.items())))

    def __repr__(self):
        return "Tensor(d=%d, dim=%d, %d entries)" % (self.degree, self.dim, len(self.entries))


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

    Computed coefficient-by-coefficient: the entry on the index multiset with
    multiplicities m is coeff * prod(m_i!)/d!.
    """
    d = phi.degree
    df = factorial(d)
    entries = {}
    for e, c in phi.body.terms.items():
        idx = _exponent_to_index(e)
        scale = Fraction(_multiplicity_product(e), df)
        entries[idx] = c * phi.field.from_rational(scale)
    return SymmetricTensor(phi.field, d, phi.nvars, entries)


def polarize_inclusion_exclusion(phi: HomogeneousForm) -> SymmetricTensor:
    """The same tensor by the alternating sum over subsets of the d slots.

    theta(v_1,...,v_d) = (1/d!) sum over nonempty S of (-1)^(d-|S|)
    phi(sum of v_i, i in S).  Exponential in d; meant for cross-checking and
    small inputs.
    """
    d = phi.degree
    n = phi.nvars
    df = factorial(d)
    entries = {}
    for idx in itertools.combinations_with_replacement(range(n), d):
        total = phi.field.zero
        for size in range(1, d + 1):
            sign = (-1) ** (d - size)
            for subset in itertools.combinations(range(d), size):
                counts = [0] * n
                for slot in subset:
                    counts[idx[slot]] += 1
                v = phi.body.eval_int(counts)
                total = total + v if sign > 0 else total - v
        if not total.is_zero():
            entries[idx] = total * phi.field.from_rational(Fraction(1, df))
    return SymmetricTensor(phi.field, d, n, entries)


def depolarize(theta: SymmetricTensor) -> HomogeneousForm:
    """Restrict the tensor to the diagonal: phi(v) = theta(v,...,v)."""
    d = theta.degree
    df = factorial(d)
    terms = {}
    for idx, val in theta.entries.items():
        e = _index_to_exponent(idx, theta.dim)
        scale = Fraction(df, _multiplicity_product(e))
        terms[e] = val * theta.field.from_rational(scale)
    body = Polynomial(theta.field, theta.dim, terms)
    return HomogeneousForm(theta.field, d, theta.dim, body)


# ---------------------------------------------------------------------------
# radical


def radical_of_tensor(theta: SymmetricTensor):
    """Basis of {x : theta(x, v2, ..., vd) = 0 for all v}."""
    # One equation per (d-1)-index `rest`: its coefficient of x_j is
    # theta(rest, j), which is nonzero only for the entries holding rest.
    rows = {}
    for idx, val in theta.entries.items():
        for drop in range(theta.degree):
            rows.setdefault(idx[:drop] + idx[drop + 1 :], {})[idx[drop]] = val
    return linalg.nullspace(theta.field, [rows[rest] for rest in sorted(rows)], theta.dim)


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
    t1 = polarize(phi1)
    t2 = polarize(phi2)
    d = phi1.degree
    n2 = phi2.nvars
    dim = phi1.nvars * n2
    entries = {}
    for a_idx, u in t1.entries.items():
        for b_idx, v in t2.entries.items():
            val = u * v
            for perm in set(itertools.permutations(b_idx)):
                pair_idx = tuple(sorted(a * n2 + b for a, b in zip(a_idx, perm)))
                entries[pair_idx] = val
    theta = SymmetricTensor(phi1.field, d, dim, entries)
    return depolarize(theta)


def transfer_form(A, s: Sequence, phi: HomogeneousForm) -> HomogeneousForm:
    """Push a form over the etale algebra A down to the base field along the
    linear functional with values s on the power basis.

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
    if phi.field != A:
        raise TypeError("form is not defined over the given algebra")

    q = phi.nvars
    big = q * m
    basis_powers = [A.one]
    for _ in range(m - 1):
        basis_powers.append(basis_powers[-1] * A.gen)
    args = []
    for j in range(q):
        w = Polynomial.zero(A, big)
        for i in range(m):
            var = Polynomial.variable(A, big, j * m + i)
            w = w + var.scale(basis_powers[i])
        args.append(w)
    over_a = phi.body.compose(args)

    terms = {}
    for e, gamma in over_a.terms.items():
        val = base.zero
        for gi, si in zip(gamma.coeffs, svals):
            val = val + gi * si
        if not val.is_zero():
            terms[e] = val
    body = Polynomial(base, big, terms)
    return HomogeneousForm(base, phi.degree, big, body)


def transfer(A, s: Sequence, gamma: SymmetricTensor) -> SymmetricTensor:
    """Tensor-level transfer, via the form dictionary (exact in char 0)."""
    phi = depolarize(gamma)
    return polarize(transfer_form(A, s, phi))


def apply_change_of_basis(phi: HomogeneousForm, f: LinearMap) -> HomogeneousForm:
    """The form v -> phi(f(v)); f must be square and invertible."""
    n = phi.nvars
    if f.nrows != n or f.ncols != n:
        raise DimensionMismatch("change of basis must be %d x %d" % (n, n))
    if f.field != phi.field:
        raise TypeError("map over the wrong field")
    det = linalg.determinant(phi.field, [list(r) for r in f.rows])
    if det.is_zero():
        raise Singular("change of basis is not invertible")
    args = []
    for k in range(n):
        w = Polynomial.zero(phi.field, n)
        for j in range(n):
            c = f.rows[k][j]
            if not c.is_zero():
                w = w + Polynomial.variable(phi.field, n, j).scale(c)
        args.append(w)
    body = phi.body.compose(args)
    return HomogeneousForm(phi.field, phi.degree, n, body)


def substitute_vectors(phi: HomogeneousForm, columns) -> HomogeneousForm:
    """phi restricted to the span of the given column vectors (not necessarily
    square); new variable i is the coefficient of columns[i]."""
    r = len(columns)
    args = []
    for k in range(phi.nvars):
        w = Polynomial.zero(phi.field, r)
        for i, col in enumerate(columns):
            c = col[k]
            if not c.is_zero():
                w = w + Polynomial.variable(phi.field, r, i).scale(c)
        args.append(w)
    body = phi.body.compose(args)
    return HomogeneousForm(phi.field, phi.degree, r, body)
