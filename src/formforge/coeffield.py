"""Exact coefficient arithmetic over Q and monogenic etale extensions.

Everything downstream (polynomials, forms, witnesses) is generic over a
coefficient field object.  Two kinds exist: the rationals, and quotients
k[t]/(f) with f monic squarefree over an existing coefficient field, so
towers like Q -> Q(w) -> Q(w)[t]/(t^3 - 2) are ordinary values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, Fraction]


class NotSquarefree(ValueError):
    """Raised when a proposed minimal polynomial shares a root with its derivative."""


class ZeroDivisor(ArithmeticError):
    """Inversion of a zero divisor in an etale algebra.

    `hint` carries coefficients of a nontrivial monic factor of the minimal
    polynomial when one is exposed by the failed inversion.
    """

    def __init__(self, message: str, hint=None):
        super().__init__(message)
        self.hint = hint


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

    def __init__(self):
        self.zero = FieldElement(self, (Fraction(0),))
        self.one = FieldElement(self, (Fraction(1),))

    def element(self, coeffs: Sequence[Rat]) -> FieldElement:
        (c,) = coeffs
        return FieldElement(self, (Fraction(c),))

    def from_rational(self, q: Rat) -> FieldElement:
        return FieldElement(self, (Fraction(q),))

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

    def _mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        prod = poly_mul(self.base, list(x.coeffs), list(y.coeffs))
        _, rem = poly_divmod(self.base, prod, list(self.minpoly))
        rem = rem + [self.base.zero] * (self.degree - len(rem))
        return FieldElement(self, tuple(rem))

    def _inv(self, x: FieldElement) -> FieldElement:
        if x.is_zero():
            raise ZeroDivisor("division by zero in %r" % (self,))
        g, u, _ = poly_xgcd(self.base, list(x.coeffs), list(self.minpoly))
        if len(g) > 1:
            raise ZeroDivisor(
                "zero divisor in %r" % (self,),
                hint=tuple(g),
            )
        # g is a nonzero constant; u/g is the inverse of x mod minpoly
        scale = g[0].inv()
        _, out = poly_divmod(self.base, poly_scale(self.base, u, scale), list(self.minpoly))
        out = out + [self.base.zero] * (self.degree - len(out))
        return FieldElement(self, tuple(out))

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


def field_extend(base, minpoly: Sequence) -> EtaleAlgebra:
    """Build base[t]/(f) from monic f given as coefficients c0..c_m (c_m = 1).

    Raises NotSquarefree when gcd(f, f') is nonconstant, i.e. the quotient
    would contain nilpotents.
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
    deriv = poly_derivative(base, coeffs)
    g = poly_gcd(base, coeffs, deriv)
    if len(g) > 1:
        raise NotSquarefree("minimal polynomial has a repeated factor of degree %d" % (len(g) - 1))
    return EtaleAlgebra(base, coeffs)


def etale_trace(A: EtaleAlgebra, x: FieldElement) -> FieldElement:
    """Trace of multiplication-by-x over the base field."""
    cols = regular_representation(A, x)
    t = A.base.zero
    for i in range(A.degree):
        t = t + cols[i][i]
    return t


def etale_norm(A: EtaleAlgebra, x: FieldElement) -> FieldElement:
    """Determinant of multiplication-by-x over the base field."""
    from . import linalg

    cols = regular_representation(A, x)
    rows = [[cols[j][i] for j in range(A.degree)] for i in range(A.degree)]
    return linalg.determinant(A.base, rows)


def regular_representation(A: EtaleAlgebra, x: FieldElement):
    """Columns of the multiplication-by-x matrix in the power basis."""
    cols = []
    cur = x
    basis_step = A.gen
    for j in range(A.degree):
        cols.append(list(cur.coeffs))
        if j + 1 < A.degree:
            cur = cur * basis_step
    return cols


# ---------------------------------------------------------------------------
# univariate polynomials over a coefficient field, as plain coefficient lists
# (low degree first, no trailing zeros).  Used for minimal-polynomial work
# here and for the idempotent machinery in decompose.


def poly_trim(field, p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def poly_add(field, p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else field.zero
        b = q[i] if i < len(q) else field.zero
        out.append(a + b)
    return poly_trim(field, out)


def poly_scale(field, p, c):
    return poly_trim(field, [c * a for a in p])


def poly_mul(field, p, q):
    if not p or not q:
        return []
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(field, out)


def poly_divmod(field, p, q):
    """Division with remainder; the leading coefficient of q must be invertible."""
    p = poly_trim(field, list(p))
    q = poly_trim(field, list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = q[-1].inv()
    quot = [field.zero] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        c = p[-1] * lead_inv
        k = len(p) - len(q)
        quot[k] = c
        for i in range(len(q)):
            p[k + i] = p[k + i] - c * q[i]
        poly_trim(field, p)
        if not p:
            break
    return poly_trim(field, quot), p


def poly_gcd(field, p, q):
    """Monic gcd via the Euclidean algorithm."""
    a, b = poly_trim(field, list(p)), poly_trim(field, list(q))
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    if a:
        a = poly_scale(field, a, a[-1].inv())
    return a


def poly_xgcd(field, p, q):
    """Extended gcd: returns (g, u, v) with u*p + v*q = g, g monic (or zero)."""
    a, b = poly_trim(field, list(p)), poly_trim(field, list(q))
    ua, va = [field.one], []
    ub, vb = [], [field.one]
    while b:
        quot, r = poly_divmod(field, a, b)
        a, b = b, r
        ua, ub = ub, poly_add(field, ua, poly_scale(field, poly_mul(field, quot, ub), -field.one))
        va, vb = vb, poly_add(field, va, poly_scale(field, poly_mul(field, quot, vb), -field.one))
    if a:
        s = a[-1].inv()
        a = poly_scale(field, a, s)
        ua = poly_scale(field, ua, s)
        va = poly_scale(field, va, s)
    return a, ua, va


def poly_derivative(field, p):
    return poly_trim(
        field, [field.from_rational(i) * c for i, c in enumerate(p)][1:]
    )


def poly_eval(field, p, x: FieldElement) -> FieldElement:
    out = field.zero
    for c in reversed(p):
        out = out * x + c
    return out
