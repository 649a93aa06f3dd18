"""Exact coefficient arithmetic over Q and monogenic etale extensions.

Everything downstream (polynomials, forms, witnesses) is generic over a
coefficient field object.  Two kinds exist: the rationals, and quotients
k[t]/(f) with f monic squarefree over an existing coefficient field, so
towers like Q -> Q(w) -> Q(w)[t]/(t^3 - 2) are ordinary values.

Every field also has a flat Q-basis of its whole tower, of size
`absolute_degree` m: the basis of k[t]/(f) is t^k * b_j for the flat basis
b_j of k, ordered with j running fastest, and the basis of Q is 1.  `flat`
writes an element as its m rational coordinates and `from_flat` reads them
back.

A `StructureTensor` holds the structure constants of a finite-dimensional
algebra as sparse rows: b_i b_j = sum over (l, c) in rows[i][j] of c b_l / den
(the multiplication table of Cohen, GTM 138, section 4.2).  Over Q the
constants are ints over one common denominator, and `mul` multiplies integer
coordinate vectors in Python ints; over an etale coefficient field they are
field elements and den is 1.  It is the one product by structure constants:
an etale algebra multiplies through the tensor of its flat basis (built once,
on first use, from the base's tensor and the flat coordinates of f, in
ints; its den is 1 when every minimal polynomial in the tower is monic with
integer coefficients), which is also how
`Polynomial.eval` works over an etale algebra, and the algebra presentations
of `constructions` and the center algebras of `decompose` each store one.
Beside it each etale algebra builds, once, its `GeneratorKeys`: the flat
basis as packed generator exponents, with the products of basis monomials
that leave the basis read off the tensor, which is how a `Polynomial` over
the algebra reduces its products in ints.

Inverses and the squarefree test of f are linear algebra over Q on that
tensor: x is inverted by one elimination of its restriction of scalars, and
f is squarefree exactly when the trace form of k[t]/(f) is nondegenerate.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Sequence, Union

Rat = Union[int, Fraction]


class NotSquarefree(ValueError):
    """Raised when a proposed minimal polynomial shares a root with its derivative."""


class ZeroDivisor(ArithmeticError):
    """Inversion of a zero divisor in an etale algebra."""


class FieldElement:
    """An element of a coefficient field, stored as a coordinate vector.

    Over Q the vector has length 1 and holds a Fraction; over k[t]/(f) it
    holds deg(f) elements of k, lowest power first.  Instances are immutable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return self.field._mul(self, other)

    def inv(self):
        return self.field._inv(self)

    def __truediv__(self, other):
        self._check(other)
        return self * self.field._inv(other)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        for a in self.coeffs:
            if isinstance(a, Fraction):
                if a:
                    return False
            elif not a.is_zero():
                return False
        return True

    def __bool__(self) -> bool:
        """False exactly for zero, as for ints and Fractions, so that sparse
        rows of ints and of field elements drop zeros alike."""
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        return "(" + ", ".join(repr(c) for c in self.coeffs) + ")"

    def as_rational(self) -> Fraction:
        """The element as a Fraction if it lies in the prime field, else raise."""
        if not all(_raw_is_zero(c) for c in self.coeffs[1:]):
            raise ValueError("element is not rational: %r" % (self,))
        c0 = self.coeffs[0]
        return c0 if isinstance(c0, Fraction) else c0.as_rational()

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise TypeError("mixed-field arithmetic: %r vs %r" % (self, other))


def _raw_is_zero(c) -> bool:
    return c == 0 if isinstance(c, Fraction) else c.is_zero()


class RationalField:
    """The field Q.  A single shared instance `QQ` is used everywhere."""

    degree = 1
    absolute_degree = 1
    generator_bits = 0

    def __init__(self):
        self.zero = FieldElement(self, (Fraction(0),))
        self.one = FieldElement(self, (Fraction(1),))

    def element(self, coeffs: Sequence[Rat]) -> FieldElement:
        (c,) = coeffs
        return FieldElement(self, (Fraction(c),))

    def from_rational(self, q: Rat) -> FieldElement:
        return FieldElement(self, (Fraction(q),))

    def flat(self, x: FieldElement) -> list:
        return [x.coeffs[0]]

    def from_flat(self, v: Sequence[Fraction]) -> FieldElement:
        return FieldElement(self, (v[0],))

    def generator_keys(self) -> "GeneratorKeys":
        return _NO_GENERATOR

    def tensor(self) -> "StructureTensor":
        """The multiplication tensor of the basis 1."""
        return _Q_TENSOR

    def _mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return FieldElement(self, (x.coeffs[0] * y.coeffs[0],))

    def _inv(self, x: FieldElement) -> FieldElement:
        if x.coeffs[0] == 0:
            raise ZeroDivisor("division by zero in Q")
        return FieldElement(self, (1 / x.coeffs[0],))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class EtaleAlgebra:
    """k[t]/(f) for a monic squarefree f over the base coefficient field k.

    Not constructed directly; use `field_extend`.  Elements are vectors of
    base elements in the power basis 1, t, ..., t^(deg-1).
    """

    def __init__(self, base, minpoly: Sequence[FieldElement]):
        self.base = base
        self.minpoly = tuple(minpoly)  # monic, includes leading 1
        self.degree = len(minpoly) - 1
        self.absolute_degree = self.degree * base.absolute_degree
        # the generators' bits in a packed key (`generator_keys`)
        self.generator_bits = base.generator_bits + (2 * (self.degree - 1)).bit_length()
        self._tensor = None
        self._keys = None
        self.zero = self.element([0] * self.degree)
        self.one = self.element([1] + [0] * (self.degree - 1))
        if self.degree >= 2:
            self.gen = self.element([0, 1] + [0] * (self.degree - 2))
        else:
            # k[t]/(t + c0): the generator is the scalar -c0
            self.gen = FieldElement(self, (-self.minpoly[0],))

    def element(self, coeffs: Sequence) -> FieldElement:
        if len(coeffs) != self.degree:
            raise ValueError("expected %d coordinates, got %d" % (self.degree, len(coeffs)))
        return FieldElement(self, tuple(self._coerce_base(c) for c in coeffs))

    def from_rational(self, q: Rat) -> FieldElement:
        return self.element([q] + [0] * (self.degree - 1))

    def _coerce_base(self, c) -> FieldElement:
        if isinstance(c, FieldElement):
            if c.field != self.base:
                raise TypeError("coordinate from the wrong field: %r" % (c,))
            return c
        return self.base.from_rational(c)

    def flat(self, x: FieldElement) -> list:
        """The rational coordinates of x in the flat basis of the tower."""
        base = self.base
        return [q for c in x.coeffs for q in base.flat(c)]

    def from_flat(self, v: Sequence[Fraction]) -> FieldElement:
        """The element with rational coordinates v in the flat basis."""
        base, mb = self.base, self.base.absolute_degree
        return FieldElement(
            self, tuple(base.from_flat(v[k : k + mb]) for k in range(0, len(v), mb))
        )

    def tensor(self) -> "StructureTensor":
        """The integer multiplication tensor of the flat basis, over Q.

        For k <= k', (t^k b_j)(t^k' b_j') is t^k applied to the base product
        b_j b_j' (from the base's tensor) at the power t^k'.  Multiplication
        by t shifts the coordinates one power up and replaces the
        coefficient x of t^deg by -(x f_0 + x f_1 t + ...).  All stays in
        ints over one denominator, less their common factor at the end."""
        if self._tensor is None:
            base, deg = self.base, self.degree
            bt, mb, m = base.tensor(), base.absolute_degree, self.absolute_degree
            f, df = integral_coordinates([q for c in self.minpoly[:-1] for q in base.flat(c)])
            f = [f[i:i + mb] for i in range(0, m, mb)]
            r = df * bt.den  # multiplication by t adds this to the denominator

            def times_t(v):
                out = [0] * mb + [x * r for x in v[:m - mb]]
                for i, fi in enumerate(f):
                    for k, x in enumerate(bt.mul(v[m - mb:], fi)):
                        out[i * mb + k] -= x
                return out

            prods = {}
            for i in range(m):
                k, j = divmod(i, mb)
                for i2 in range(i, m):
                    k2, j2 = divmod(i2, mb)
                    v = [0] * m
                    for p, c in bt.rows[j][j2]:
                        v[k2 * mb + p] = c
                    for _ in range(k):
                        v = times_t(v)
                    prods[i, i2] = [x * r ** (deg - 1 - k) for x in v]
            D = bt.den * r ** (deg - 1)
            g = math.gcd(D, *(x for v in prods.values() for x in v))
            T = [[()] * m for _ in range(m)]
            for (i, j), v in prods.items():
                T[i][j] = T[j][i] = tuple((k, x // g) for k, x in enumerate(v) if x)
            self._tensor = StructureTensor(QQ, T, D // g)
        return self._tensor

    def generator_keys(self) -> "GeneratorKeys":
        """The flat basis as packed generator exponents, with the reduction
        table of their products (built once, from `tensor`)."""
        if self._keys is None:
            base = self.base.generator_keys()
            keys = tuple((k << base.bits) | b for k in range(self.degree) for b in base.keys)
            T = self.tensor()
            gk = GeneratorKeys(self.generator_bits, keys, {}, T.den)
            for i, a in enumerate(keys):
                for j in range(i, len(keys)):
                    s = a + keys[j]
                    if s not in gk.index:
                        gk.table[s] = tuple((keys[l], c) for l, c in T.rows[i][j])
            self._keys = gk
        return self._keys

    def _mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        t = self.tensor()
        a, da = integral_coordinates(self.flat(x))
        b, db = integral_coordinates(self.flat(y))
        den = da * db * t.den
        return self.from_flat([Fraction(c, den) for c in t.mul(a, b)])

    def _inv(self, x: FieldElement) -> FieldElement:
        """1/x from one elimination over Q: with x = a / da, the restriction
        of scalars M = Dt R(a) (`restrict_scalars`) has M y = Dt flat(a y),
        so M y = e_0 gives x (Dt da y) = 1.  x is a unit exactly when M has
        rank m."""
        from . import linalg

        if x.is_zero():
            raise ZeroDivisor("division by zero in %r" % (self,))
        m = self.absolute_degree
        a, da = integral_coordinates(self.flat(x))
        rows = restrict_scalars(self, [{0: a}])
        rows[0][m] = 1
        red, pivots = linalg.rref(QQ, rows)
        if pivots != list(range(m)):
            raise ZeroDivisor("zero divisor in %r" % (self,))
        s = da * self.tensor().den
        return self.from_flat([Fraction(s * row.get(m, 0), row[k]) for k, row in enumerate(red)])

    def __eq__(self, other):
        return (
            isinstance(other, EtaleAlgebra)
            and other.base == self.base
            and other.minpoly == self.minpoly
        )

    def __hash__(self):
        return hash((self.base, self.minpoly))

    def __repr__(self):
        return "Etale(deg=%d over %r)" % (self.degree, self.base)


class GeneratorKeys:
    """The flat basis of a field as packed generator exponents: the monomial
    t_1^k_1 ... t_r^k_r of a tower, top level first, is the int with k_i in a
    field of its own, wide enough for 2(m_i - 1) with m_i the degree of
    level i, so that the key of a product of two basis monomials is the sum
    of their keys.  `keys[l]` is the key of flat basis element l, and
    `table` maps the key of every product with some k_i >= m_i to that
    product in the flat basis, as ((key, c), ...) over `den`, the
    denominator of the field's tensor.  Over Q there is no generator: one
    key 0 in zero bits."""

    __slots__ = ("bits", "mask", "keys", "index", "table", "den")

    def __init__(self, bits: int, keys, table, den: int):
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.keys = keys
        self.index = {t: l for l, t in enumerate(keys)}
        self.table = table
        self.den = den


_NO_GENERATOR = GeneratorKeys(0, (0,), {}, 1)


def to_coordinates(field, xs):
    """(a, den) for field elements xs: over Q the ints a with xs = a / den,
    den their least common denominator; over an etale field the elements
    themselves over 1."""
    if isinstance(field, RationalField):
        return integral_coordinates([x.coeffs[0] for x in xs])
    return list(xs), 1


def from_coordinates(field, a, den: int = 1) -> tuple:
    """The field elements a / den: `to_coordinates` read back."""
    if isinstance(field, RationalField):
        zero = field.zero
        return tuple([FieldElement(field, (Fraction(v, den),)) if v else zero for v in a])
    return tuple(a)


def restrict_scalars(field, rows) -> list:
    """The restriction of scalars R to Q (the regular representation; Friedl
    & Ronyai, STOC 1985) of a matrix given as dict rows {column: value}, a
    value a nonzero int over Q and a flat int vector over an etale field.
    Entry (i, c) becomes the m x m int block Dt R(x) at rows i m, ... and
    columns c m, ..., whose column l holds the flat coordinates of x
    kappa_l (kappa_0 = 1), m the absolute degree and Dt the tensor's
    denominator.  R is a ring map with R(1) = I, so a matrix is invertible
    exactly when its restriction is.  Over Q, R is the identity."""
    if isinstance(field, RationalField):
        return rows
    t, m = field.tensor(), field.absolute_degree
    out = []
    for row in rows:
        block = [{} for _ in range(m)]
        for c, a in row.items():
            for l in range(m):
                for k, v in t.combine((ai, t.rows[i][l]) for i, ai in enumerate(a) if ai).items():
                    block[k][c * m + l] = v
        out.extend(block)
    return out


def integral_coordinates(v: Sequence[Rat]):
    """(a, B): integers a and the least common denominator B of the rationals
    v, with v[i] = a[i] / B."""
    B = math.lcm(*(q.denominator for q in v))
    return [q.numerator * (B // q.denominator) for q in v], B


class StructureTensor:
    """The structure constants of an algebra with basis b_0, ..., b_(n-1), as
    sparse rows: b_i b_j = sum over (l, c) in rows[i][j] of c b_l / den.

    Over Q (`integral`) the constants are nonzero ints over one common
    positive denominator den, and coordinates travel as int vectors over a
    denominator of their own.  Over an etale coefficient field the constants
    and coordinates are nonzero field elements and den is 1: the field path.
    """

    __slots__ = ("field", "rows", "den", "integral", "zero")

    def __init__(self, field, rows, den: int = 1):
        self.field = field
        self.rows = rows
        self.den = den
        self.integral = isinstance(field, RationalField)
        self.zero = 0 if self.integral else field.zero

    @classmethod
    def from_elements(cls, field, planes) -> "StructureTensor":
        """The tensor of dense constants planes[i][j][l], field elements."""
        return cls.from_constants(field, len(planes), [
            ((i, j, l), c)
            for i, plane in enumerate(planes)
            for j, row in enumerate(plane)
            for l, c in enumerate(row)
            if c
        ])

    @classmethod
    def from_constants(cls, field, n: int, constants) -> "StructureTensor":
        """The n-dimensional tensor of the pairs ((i, j, l), c): nonzero
        field elements c at distinct positions, every other constant zero."""
        constants = sorted(constants, key=lambda t: t[0])
        flat, den = to_coordinates(field, [c for _, c in constants])
        rows = [[[] for _ in range(n)] for _ in range(n)]
        for ((i, j, l), _), c in zip(constants, flat):
            rows[i][j].append((l, c))
        return cls(field, tuple(tuple(map(tuple, plane)) for plane in rows), den)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def constants(self) -> list:
        """The nonzero constants as pairs ((i, j, l), field element), in
        index order: `from_constants` read back."""
        where = [(i, j, l) for i, plane in enumerate(self.rows)
                 for j, row in enumerate(plane) for l, _ in row]
        values = [c for plane in self.rows for row in plane for _, c in row]
        return list(zip(where, from_coordinates(self.field, values, self.den)))

    def elements(self):
        """The dense constants: planes[i][j][l] as field elements."""
        n, zero = len(self.rows), self.field.zero
        out = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for (i, j, l), c in self.constants():
            out[i][j][l] = c
        return tuple(tuple(map(tuple, plane)) for plane in out)

    def scalar(self, k: int):
        """The integer k as a coordinate value."""
        return k if self.integral else self.field.from_rational(k)

    def mul(self, a, b) -> list:
        """The coordinates of the product of the elements with coordinates a
        and b.  Over Q, a and b are ints and so is the result, over den times
        the denominators of a and b."""
        rows = self.rows
        out = [self.zero] * len(a)
        for i, ai in enumerate(a):
            if ai:
                row = rows[i]
                for j, bj in enumerate(b):
                    if bj:
                        c = ai * bj
                        for k, t in row[j]:
                            out[k] += c * t
        return out

    def mul_columns(self, a, b) -> list:
        """The products of two batches of elements, column by column: column
        i of a (and of b) holds coordinate i of each element of its batch,
        and column k of the result coordinate k of each product, over den
        times the denominators of a and b (integral tensors only).  Each
        nonzero constant is one `map` over the batch; zero columns are
        skipped."""
        rows = self.rows
        out = [None] * len(rows)
        right = [j for j, col in enumerate(b) if any(col)]
        for i, col in enumerate(a):
            if not any(col):
                continue
            row = rows[i]
            for j in right:
                if row[j]:
                    p = list(map(operator.mul, col, b[j]))
                    for k, c in row[j]:
                        t = p if c == 1 else list(map(operator.mul, p, repeat(c)))
                        out[k] = t if out[k] is None else list(map(operator.add, out[k], t))
        size = len(a[0])
        return [[0] * size if v is None else v for v in out]

    def traces(self) -> list:
        """t_i = sum_k T[i][k][k] on the int constants: the trace of
        multiplication by b_i on the whole algebra, times den."""
        return [sum(c for k, row in enumerate(plane) for l, c in row if l == k)
                for plane in self.rows]

    def trace_form_rank(self, basis) -> int:
        """The rank over Q of the trace form t(xy) on the span of the int
        vectors `basis`, t(x) = sum_i x_i t_i the trace of multiplication by
        x on the whole algebra (`traces`; a scaling keeps the rank).  On a
        commutative Q-algebra its kernel is the nilradical."""
        from . import linalg

        tr = self.traces()
        m = len(basis)
        gram = [{} for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = sum(a * b for a, b in zip(tr, self.mul(basis[i], basis[j])) if b)
                if v:
                    gram[i][j] = gram[j][i] = v
        return linalg.rank(QQ, gram)

    def combine(self, pairs) -> dict:
        """sum of s * row over (s, row) in pairs, for sparse rows ((l, c), ...),
        as a dict {l: nonzero value}."""
        acc = {}
        get = acc.get
        for s, row in pairs:
            for l, c in row:
                v = get(l)
                acc[l] = s * c if v is None else v + s * c
        return {l: v for l, v in acc.items() if v}


_Q_TENSOR = StructureTensor(QQ, ((((0, 1),),),), 1)


def field_extend(base, minpoly: Sequence) -> EtaleAlgebra:
    """base[t]/(f) for monic f given as coefficients c0..c_m (c_m = 1).

    Fields are interned: equal (base, f) give the same `EtaleAlgebra`, so
    its tensor, squarefree test and `GeneratorKeys` are built once per
    process.  Raises NotSquarefree when gcd(f, f') is nonconstant, i.e. the
    quotient would contain nilpotents: over a field k their Q-dimension
    [k:Q] deg gcd(f, f') is the nullity of the trace form of k[t]/(f).
    """
    coeffs = []
    for c in minpoly:
        if isinstance(c, FieldElement):
            if c.field != base:
                raise TypeError("minimal polynomial coefficient from the wrong field")
            coeffs.append(c)
        else:
            coeffs.append(base.from_rational(c))
    if len(coeffs) < 2:
        raise ValueError("minimal polynomial must have degree >= 1")
    if coeffs[-1] != base.one:
        raise ValueError("minimal polynomial must be monic")
    return _extension(base, tuple(coeffs))


@functools.lru_cache(maxsize=None)
def _extension(base, minpoly: tuple) -> EtaleAlgebra:
    """The interned field of `field_extend`; a failed test is not cached."""
    A = EtaleAlgebra(base, minpoly)
    m = A.absolute_degree
    nil = m - A.tensor().trace_form_rank([[int(i == j) for j in range(m)] for i in range(m)])
    if nil:
        raise NotSquarefree("minimal polynomial has a repeated factor of degree %d"
                            % (nil // base.absolute_degree))
    return A


def etale_trace(A: EtaleAlgebra, x: FieldElement) -> FieldElement:
    """Trace of multiplication-by-x over the base field."""
    cols = regular_representation(A, x)
    t = A.base.zero
    for i in range(A.degree):
        t = t + cols[i][i]
    return t


def etale_norm(A: EtaleAlgebra, x: FieldElement) -> FieldElement:
    """Determinant of multiplication-by-x over the base field (that of its
    transpose, the columns as rows)."""
    from . import linalg

    return linalg.determinant(A.base, regular_representation(A, x))


def regular_representation(A: EtaleAlgebra, x: FieldElement):
    """Columns of the multiplication-by-x matrix in the power basis: the
    coordinates of x, x t, ..., x t^(deg-1)."""
    cols = [x]
    while len(cols) < A.degree:
        cols.append(cols[-1] * A.gen)
    return [list(c.coeffs) for c in cols]
