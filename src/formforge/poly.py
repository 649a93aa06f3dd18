"""Sparse multivariate polynomials and rational functions over a coefficient field.

A `Polynomial` reads as {exponent tuple: coefficient} through `terms`; the
canonical term order is graded lexicographic.  Identity checking offers a
symbolic mode (canonical subtraction, a proof) and a random mode (exact
evaluation with a Schwartz-Zippel style confidence bound).

Every polynomial is stored in one packed form: a dict from packed keys to
integer numerators over one positive denominator, kept canonical (the
denominator is coprime to the numerators taken together).  Over Q a key is
a packed exponent vector.  Over an etale algebra K = Q[t]/(f), or a tower of
them, a key also carries the generators' exponents (`GeneratorKeys` of
`coeffield`), so a coefficient of K is the group of keys that share one
exponent vector, with its flat coordinates as numerators.  Sums, products
(sparse, as in Johnson, SIGSAM Bull. 8(3), 1974), composition, embedding and
comparison run on ints for every field; over K the one extra step is
`_reduce`, once per product, which writes generator powers at or above their
degree in the flat basis through the field's table.  Heap division with
packed exponent vectors (as in Monagan & Pearce, CASC 2007) pops a whole
coefficient group at a time.  `terms` is a view of field elements built on
first read and cached.

Packing: every polynomial packs with the same W bits a variable.  The
exponent part of x^e in n variables is sum(e) * 2^(n W) +
sum_i e_i * 2^((n - 1 - i) W), so the total degree sits in the top field;
the generators' G bits sit below it, and the key is the exponent part times
2^G plus the generator part.  Integer order is then graded-lex order on x,
then order on the generators, and the key of a product of monomials is the
sum of their keys; each generator field has room for the product of two
reduced powers.  No exponent field carries into the next as long as the
total degree stays below 2^W, so that is checked where a degree can grow:
construction (and decoding), products, powers, composition and
`linear_forms` raise `DegreeLimitExceeded` above MAX_DEGREE, before any
key is packed; construction also refuses an exponent tuple of the wrong
length or with a negative entry, which would borrow from the field above
it.  Two polynomials of one ring always share their packing, so
no arithmetic, comparison or read changes an operand's keys.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress
from typing import Callable, Optional, Sequence, Tuple

from . import linalg
from .coeffield import (FieldElement, RationalField, from_coordinates, integral_coordinates,
                        to_coordinates)


class NotDivisible(ArithmeticError):
    """exact_div called on a non-multiple."""


class TermBudgetExceeded(RuntimeError):
    """A symbolic expansion was refused because its estimated size is too large."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(
            "estimated %d terms exceeds the configured budget of %d" % (estimate, budget)
        )
        self.estimate = estimate
        self.budget = budget


DEFAULT_TERM_BUDGET = 5_000_000

W = 16  # bits of each exponent field of a packed key
MAX_DEGREE = (1 << W) - 1  # the largest total degree; also one field's mask


class DegreeLimitExceeded(ValueError):
    """A polynomial whose total degree would be above MAX_DEGREE, which the
    packed exponent fields cannot hold."""

    def __init__(self, degree: int):
        super().__init__("total degree %d is above the limit of %d" % (degree, MAX_DEGREE))
        self.degree = degree


def check_degree(degree: int) -> None:
    """Raise DegreeLimitExceeded when `degree` does not fit the packing."""
    if degree > MAX_DEGREE:
        raise DegreeLimitExceeded(degree)


def _check_exponents(exps, n: int) -> None:
    """Raise ValueError unless every exponent tuple of `exps` has n entries,
    none of them negative: a packed key has one field a variable, and a
    negative entry borrows from the field above it."""
    for e in exps:
        if len(e) != n:
            raise ValueError("exponent tuple %r has %d entries, expected %d" % (e, len(e), n))
        if n and min(e) < 0:
            raise ValueError("exponent tuple %r has a negative entry" % (e,))


def _grlex(e: Tuple[int, ...]):
    return (sum(e), e)


# ---------------------------------------------------------------------------
# packed exponents and coefficients over one denominator


def _pack(e: Sequence[int]) -> int:
    k = sum(e)
    for x in e:
        k = (k << W) | x
    return k


def _unpack(k: int, n: int) -> Tuple[int, ...]:
    e = [0] * n
    for i in range(n - 1, -1, -1):
        e[i] = k & MAX_DEGREE
        k >>= W
    return tuple(e)


def _mul_nums(a: dict, b: dict) -> dict:
    """The product of two packed polynomials, without the zero terms that
    sums of products may leave."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ka, ca),) = a.items()
        return {ka + kb: ca * cb for kb, cb in b.items()}
    out = {}
    get = out.get
    items = list(b.items())
    for ka, ca in a.items():
        for kb, cb in items:
            k = ka + kb
            v = get(k)
            out[k] = ca * cb if v is None else v + ca * cb
    return {k: c for k, c in out.items() if c}


def _reduce(nums: dict, gen) -> dict:
    """nums, a packed product (changed in place), with every key whose
    generator part is in `gen.table` written in the flat basis, and the
    value times gen.den, so the product lies over gen.den times its
    denominator.  Over an etale algebra that is not a field, such as
    Q[t]/(t^2 - 1), terms can cancel here, and they are dropped."""
    table, mask, dt = gen.table, gen.mask, gen.den
    high = [k for k in nums if (k & mask) in table]
    high = [(k ^ (k & mask), nums.pop(k), table[k & mask]) for k in high]
    if dt != 1:
        for k in nums:
            nums[k] *= dt
    get = nums.get
    for x, c, row in high:
        for t, a in row:
            k = x | t
            v = get(k)
            if v is None:
                nums[k] = c * a
            else:
                v += c * a
                if v:
                    nums[k] = v
                else:
                    del nums[k]
    return nums


def _product(a: dict, b: dict, gen) -> dict:
    """The packed product of a and b over gen.den times their denominators
    (`_reduce`; over Q, with no table, gen.den is 1)."""
    nums = _mul_nums(a, b)
    return _reduce(nums, gen) if gen.table else nums


_ONE = {0: 1}  # the packed constant 1, in every ring


def _canonical(nums: dict, den: int):
    """(nums, den) with the common factor of den and every numerator divided out."""
    if not nums:
        return nums, 1
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return nums, den


class Polynomial:
    __slots__ = ("field", "nvars", "_terms", "_nums", "_den", "_compiled")

    def __init__(self, field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self._compiled = None
        _check_exponents(terms, nvars)
        if isinstance(field, RationalField):
            terms = {e: c for e, c in terms.items() if c.coeffs[0]}
            self._terms = terms
            if not terms:
                self._nums, self._den = {}, 1
                return
            check_degree(max(map(sum, terms)))
            nums, self._den = integral_coordinates([c.coeffs[0] for c in terms.values()])
            self._nums = dict(zip(map(_pack, terms), nums))
            return
        self._terms = None
        check_degree(max((sum(e) for e, c in terms.items() if c), default=0))
        # each coefficient's flat int coordinates at its generator keys
        gen, m = field.generator_keys(), field.absolute_degree
        ints, den = to_coordinates(field, terms.values())
        nums = {_pack(e) << gen.bits | t: a for i, e in enumerate(terms)
                for t, a in zip(gen.keys, ints[i * m:i * m + m]) if a}
        self._nums, self._den = _canonical(nums, den)

    @classmethod
    def _from_nums(cls, field, nvars: int, nums: dict, den: int) -> "Polynomial":
        """A polynomial from its packed form, made canonical."""
        p = cls.__new__(cls)
        p.field = field
        p.nvars = nvars
        p._nums, p._den = _canonical(nums, den)
        p._terms = None
        p._compiled = None
        return p

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero coefficient}; read-only.  Built from the
        packed form on first read and cached."""
        t = self._terms
        if t is None:
            n, field, den = self.nvars, self.field, self._den
            if isinstance(field, RationalField):
                t = {
                    _unpack(k, n): FieldElement(field, (Fraction(c, den),))
                    for k, c in self._nums.items()
                }
            else:
                t = {
                    _unpack(x, n): field.from_flat([Fraction(c, den) for c in v])
                    for x, v in self._vectors().items()
                }
            self._terms = t
        return t

    def _vectors(self) -> dict:
        """{exponent part of a key: the flat int coordinates of its
        coefficient}, over the denominator."""
        if not self.field.generator_bits:  # one coordinate; a key is its exponent part
            return {k: [c] for k, c in self._nums.items()}
        gen = self.field.generator_keys()
        G, mask, index, m = gen.bits, gen.mask, gen.index, len(gen.keys)
        out = {}
        for k, c in self._nums.items():
            v = out.get(k >> G)
            if v is None:
                v = out[k >> G] = [0] * m
            v[index[k & mask]] = c
        return out

    def _coefficient(self, x: int) -> FieldElement:
        """The coefficient of the exponent part x of a key."""
        gen = self.field.generator_keys()
        base = x << gen.bits
        v = [self._nums.get(base | t, 0) for t in gen.keys]
        return from_coordinates(self.field, v, self._den)[0]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field, nvars: int) -> "Polynomial":
        return Polynomial(field, nvars, {})

    @staticmethod
    def const(field, nvars: int, c) -> "Polynomial":
        if not isinstance(c, FieldElement):
            c = field.from_rational(c)
        return Polynomial(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(field, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable %d is not one of the %d variables" % (i, nvars))
        e = [0] * nvars
        e[i] = 1
        return Polynomial(field, nvars, {tuple(e): field.one})

    @staticmethod
    def from_pairs(field, nvars: int, pairs) -> "Polynomial":
        terms = {}
        for e, c in pairs:
            if not isinstance(c, FieldElement):
                c = field.from_rational(c)
            e = tuple(e)
            terms[e] = terms[e] + c if e in terms else c
        return Polynomial(field, nvars, terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self._combine(other, False)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self._combine(other, True)

    def _combine(self, other: "Polynomial", subtract: bool) -> "Polynomial":
        """self + other, or self - other, over the common denominator."""
        da, db = self._den, other._den
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        out = dict(self._nums) if fa == 1 else {k: c * fa for k, c in self._nums.items()}
        get = out.get
        for k, c in other._nums.items():
            if fb != 1:
                c = c * fb
            v = get(k)
            if v is None:
                out[k] = -c if subtract else c
            else:
                v = v - c if subtract else v + c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Polynomial._from_nums(self.field, self.nvars, out, den)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_nums(
            self.field, self.nvars, {k: -c for k, c in self._nums.items()}, self._den
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self._nums or not other._nums:
            return Polynomial.zero(self.field, self.nvars)
        if other._nums == _ONE and other._den == 1:
            return self
        if self._nums == _ONE and self._den == 1:
            return other
        check_degree(self.total_degree() + other.total_degree())
        gen = self.field.generator_keys()
        nums = _product(self._nums, other._nums, gen)
        den = self._den * other._den * gen.den
        return Polynomial._from_nums(self.field, self.nvars, nums, den)

    def scale(self, c) -> "Polynomial":
        if not isinstance(c, FieldElement):
            c = self.field.from_rational(c)
        if c.is_zero():
            return Polynomial.zero(self.field, self.nvars)
        if c.field != self.field:
            raise TypeError("mixed-field arithmetic: %r vs %r" % (c, self.field))
        gen = self.field.generator_keys()
        a, d = integral_coordinates(self.field.flat(c))
        nums = _product(self._nums, {t: x for t, x in zip(gen.keys, a) if x}, gen)
        den = self._den * d * gen.den
        return Polynomial._from_nums(self.field, self.nvars, nums, den)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        check_degree(max(self.total_degree(), 0) * n)
        out = Polynomial.const(self.field, self.nvars, self.field.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Quotient when `other` divides exactly, else NotDivisible.

        The remainder is updated in place in one dict, and its leading term
        comes from a heap of its keys, along the lines of Monagan & Pearce
        (CASC 2007).  Subtracting q * other only adds monomials below the
        current leading one, so a monomial popped once never returns.

        Over Q the division runs on integer numerators by the primitive part
        P of `other`: when P divides an integer polynomial over Q, the
        quotient has integer coefficients (Gauss's lemma), so a leading
        coefficient that P's does not divide proves there is no quotient.
        Over an etale algebra the leading coefficient is the group of keys
        of the top monomial, inverted once (ZeroDivisor for a zero divisor),
        and each step pops a whole group of the remainder; the remainder and
        the quotient are held in Fractions."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        n = self.nvars
        # a borrow out of an exponent field flips the lowest bit of the next
        borrows = sum(1 << (i * W) for i in range(1, n + 1))
        if not isinstance(self.field, RationalField):
            return self._exact_div_groups(other, borrows)
        lt = max(other._nums)
        content = math.gcd(*other._nums.values())
        tail = {k: c // content for k, c in other._nums.items()}
        lc = tail.pop(lt)
        tail = list(tail.items())
        rem = dict(self._nums)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            rk = -heapq.heappop(heap)
            rc = rem.pop(rk, None)
            if rc is None:
                continue
            qk = rk - lt
            if qk < 0 or (qk ^ rk ^ lt) & borrows:
                raise NotDivisible(
                    "leading term %r not divisible by %r"
                    % (_unpack(rk, n), _unpack(lt, n))
                )
            qc, r = divmod(rc, lc)
            if r:
                raise NotDivisible("coefficient %d not divisible by %d" % (rc, lc))
            quot[qk] = qc
            for k, c in tail:
                mk = qk + k
                old = rem.get(mk)
                if old is None:
                    rem[mk] = -qc * c
                    heapq.heappush(heap, -mk)
                else:
                    v = old - qc * c
                    if v:
                        rem[mk] = v
                    else:
                        del rem[mk]
        # self = A / da and other = content * P / db, with A = P * quot
        db = other._den
        nums = quot if db == 1 else {k: c * db for k, c in quot.items()}
        return Polynomial._from_nums(self.field, n, nums, self._den * content)

    def _exact_div_groups(self, other: "Polynomial", borrows: int) -> "Polynomial":
        """exact_div over an etale algebra, on the numerators A of self and
        B of other: A / B in Fractions, then scaled by their denominators."""
        n, field = self.nvars, self.field
        gen = field.generator_keys()
        G, mask, dt = gen.bits, gen.mask, gen.den
        lx = max(other._nums) >> G
        tail = {k: c for k, c in other._nums.items() if k >> G != lx}
        lc = other._vectors()[lx]
        u, e = field.flat_inverse(lc)
        inv = {t: a for t, a in zip(gen.keys, u) if a}
        s = e * dt  # a quotient coefficient is (rc * inv) / s, reduced
        rem = {k: Fraction(c) for k, c in self._nums.items()}
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            rk = -heapq.heappop(heap)
            if rk not in rem:
                continue
            rx = rk >> G
            qx = rx - lx
            if qx < 0 or (qx ^ rx ^ lx) & borrows:
                raise NotDivisible(
                    "leading term %r not divisible by %r"
                    % (_unpack(rx, n), _unpack(lx, n))
                )
            base = rx << G
            rc = {t: rem.pop(base | t) for t in gen.keys if base | t in rem}
            base = qx << G
            qc = {base | t: c / s for t, c in _product(rc, inv, gen).items()}
            quot.update(qc)
            for mk, v in _product(qc, tail, gen).items():
                if dt != 1:
                    v /= dt
                old = rem.get(mk)
                if old is None:
                    rem[mk] = -v
                    heapq.heappush(heap, -mk)
                else:
                    v = old - v
                    if v:
                        rem[mk] = v
                    else:
                        del rem[mk]
        L = math.lcm(*(q.denominator for q in quot.values()))
        db = other._den
        nums = {k: q.numerator * (L // q.denominator) * db for k, q in quot.items()}
        return Polynomial._from_nums(field, n, nums, self._den * L)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def term_count(self) -> int:
        G = self.field.generator_bits
        return len({k >> G for k in self._nums}) if G else len(self._nums)

    def exponents(self) -> list:
        """The exponent tuples of the terms, read from the packed form; the
        terms view is not built."""
        n, G = self.nvars, self.field.generator_bits
        return [_unpack(x, n) for x in dict.fromkeys(k >> G for k in self._nums)]

    def int_terms(self):
        """(pairs, den): the terms as (exponent tuple, numerator) over the
        denominator den, read from the packed form; a numerator is an int
        over Q and the int vector of the flat coordinates over an etale
        field."""
        n = self.nvars
        nums = self._nums if isinstance(self.field, RationalField) else self._vectors()
        return [(_unpack(x, n), c) for x, c in nums.items()], self._den

    def base_coordinates(self) -> list:
        """Over K = k[t]/(f) of degree m: the m polynomials over k whose
        coefficients are the coordinates of this one's coefficients in the
        power basis 1, t, ..., t^(m - 1).  The keys are split in place: the
        top level of the generator part picks the coordinate, and the rest
        is the key over k."""
        field = self.field
        base = field.base
        G, Gb = field.generator_bits, base.generator_bits
        parts = [{} for _ in range(field.degree)]
        for k, c in self._nums.items():
            g = k & ((1 << G) - 1)
            parts[g >> Gb][((k >> G) << Gb) | (g & ((1 << Gb) - 1))] = c
        return [Polynomial._from_nums(base, self.nvars, nums, self._den) for nums in parts]

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self._nums:
            return -1
        return max(self._nums) >> (self.nvars * W + self.field.generator_bits)

    def is_homogeneous(self, d: Optional[int] = None) -> bool:
        if not self._nums:
            return True
        shift = self.nvars * W + self.field.generator_bits
        lo, hi = min(self._nums) >> shift, max(self._nums) >> shift
        if lo != hi:
            return False
        return d is None or lo == d

    def leading_term(self):
        x = max(self._nums) >> self.field.generator_bits
        e = _unpack(x, self.nvars)
        if self._terms is not None:
            return e, self._terms[e]
        return e, self._coefficient(x)

    def is_monic(self) -> bool:
        """Whether the leading coefficient is 1, read from the packed form:
        the top key has no generator part (so it is alone in its group) and
        its canonical numerator equals the denominator.  The zero polynomial
        is not monic."""
        if not self._nums:
            return False
        k = max(self._nums)
        return not k & ((1 << self.field.generator_bits) - 1) and self._nums[k] == self._den

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def constant_coeff(self) -> FieldElement:
        return self._coefficient(0)

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence[FieldElement]) -> FieldElement:
        """The value at a point of field elements, through `program`: the
        coordinates are written as flat int vectors over one common
        denominator, a rational coordinate as its one coordinate."""
        self._check_length(point)
        field = self.field
        for x in point:
            f = getattr(x, "field", None)
            if f is not field and f != field:
                raise TypeError("coordinate %r is not in %r" % (x, field))
        flats = [field.flat(x) for x in point]
        B = math.lcm(*(q.denominator for v in flats for q in v))
        nums = [[q.numerator * (B // q.denominator) for q in v] for v in flats]
        # a rational coordinate as its one column, any other as m columns
        coords = [[[x] for x in (v if any(v[1:]) else v[:1])] for v in nums]
        prog = self.program()
        return prog.elements(prog.at(coords, 1, B)[0], B)[0]

    def eval_int(self, point: Sequence[int]) -> FieldElement:
        self._check_length(point)
        prog = self.program()
        return prog.elements(prog.at([[[x]] for x in point], 1)[0])[0]

    def _check_length(self, point):
        if len(point) != self.nvars:
            raise ValueError("point has %d coordinates, expected %d" % (len(point), self.nvars))

    def program(self) -> "EvalProgram":
        """This polynomial's `EvalProgram`, compiled on first use and kept."""
        prog = self._compiled
        if prog is None:
            prog = self._compiled = EvalProgram([self])
        return prog

    def compose(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute args[i] for variable i.  All args share one ambient ring
        over this polynomial's coefficient field.

        Each term c x^e becomes c * prod_i A_i^e_i, with A_i the packed
        arguments and their powers cached, and the last product of each term
        adds straight into one output dict, reduced once at the end.  With
        a_i the argument denominators and t_i the top exponent of variable
        i, the sum lies over den * prod_i a_i^t_i, so term e is scaled by
        prod_i a_i^(t_i - e_i).  Over an etale algebra with tensor
        denominator Dt, a term of degree k > 0 comes out of its k reductions
        (`_reduce`) over Dt^k, and the constant term out of the last one, so
        with D the top degree the sum lies over one more Dt^D and term e is
        also scaled by Dt^(D - k), the constant term by Dt^(D - 1)."""
        if len(args) != self.nvars:
            raise ValueError("need %d substitution arguments" % (self.nvars,))
        if not args:
            return self
        ring = args[0]
        for a in args:
            if not isinstance(a, Polynomial):
                raise TypeError("expected a Polynomial, got %r" % (a,))
            ring._check(a)
        if ring.field != self.field:
            raise TypeError("mixed-field arithmetic: %r vs %r" % (self.field, ring.field))
        gen = self.field.generator_keys()
        G, mask, dt = gen.bits, gen.mask, gen.den
        # each monomial's coefficient as a packed constant: its group of keys
        groups = {}
        for k, c in self._nums.items():
            g = groups.get(k >> G)
            if g is None:
                groups[k >> G] = {k & mask: c}
            else:
                g[k & mask] = c
        const = groups.pop(0, None)
        terms = [(_unpack(x, self.nvars), g) for x, g in groups.items()]
        degs = [max(a.total_degree(), 0) for a in args]
        check_degree(max((sum(k * d for k, d in zip(e, degs)) for e, _ in terms), default=0))
        den = self._den
        scales = []
        for i, a in enumerate(args):
            top = max((e[i] for e, _ in terms), default=0)
            den *= a._den**top
            scales.append([a._den ** (top - k) for k in range(top + 1)])
        # the constant term is scaled by every a_i^t_i
        s0 = den // self._den
        if dt != 1 and terms:
            D = max(sum(e) for e, _ in terms)
            dts = [dt**k for k in range(D + 1)]
            s0 *= dts[D - 1]
            den *= dts[D]
        powers = [[None, a._nums] for a in args]
        out = {} if const is None else {k: c * s0 for k, c in const.items()}
        get = out.get
        for e, t in terms:
            factors = []
            s = 1 if dt == 1 else dts[D - sum(e)]
            for i, k in enumerate(e):
                if k:
                    row = powers[i]
                    while len(row) <= k:
                        row.append(_product(row[-1], row[1], gen))
                    factors.append(row[k])
                s *= scales[i][k]
            if s != 1:
                t = {k: c * s for k, c in t.items()}
            for f in factors[:-1]:
                t = _product(t, f, gen)
            for k1, c1 in t.items():
                for k2, c2 in factors[-1].items():
                    k = k1 + k2
                    v = get(k)
                    out[k] = c1 * c2 if v is None else v + c1 * c2
        nums = {k: v for k, v in out.items() if v}
        if gen.table and terms:
            nums = _reduce(nums, gen)
        return Polynomial._from_nums(self.field, args[0].nvars, nums, den)

    def embed(self, nvars: int, offset: int) -> "Polynomial":
        """The same polynomial with variables shifted into a larger ring."""
        if offset < 0 or offset + self.nvars > nvars:
            raise ValueError("embedding does not fit")
        # the degree field moves to the new top; the exponent fields land
        # below the offset's variables, and the generator part stays below
        # them all
        G = self.field.generator_bits
        gmask = (1 << G) - 1
        shift = self.nvars * W
        mask = (1 << shift) - 1
        low = (nvars - offset - self.nvars) * W
        top = nvars * W
        nums = {}
        for k, c in self._nums.items():
            x = k >> G
            nums[((((x >> shift) << top) | ((x & mask) << low)) << G) | (k & gmask)] = c
        return Polynomial._from_nums(self.field, nvars, nums, self._den)

    # -- plumbing ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial, got %r" % (other,))
        if other.field != self.field or other.nvars != self.nvars:
            raise TypeError("polynomials from different rings")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.field != other.field or self.nvars != other.nvars:
            return False
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        bits = []
        for e, c in self.sorted_terms()[:8]:
            mono = "*".join(
                "x%d^%d" % (i, k) if k > 1 else "x%d" % i for i, k in enumerate(e) if k
            )
            bits.append("%r%s" % (c, "*" + mono if mono else ""))
        tail = " + ..." if len(self.terms) > 8 else ""
        return "Poly(%s%s)" % (" + ".join(bits), tail)


# ---------------------------------------------------------------------------
# compiled evaluation


class EvalProgram:
    """The values of polynomials p_0, ..., p_(r-1) of one ring at a batch of
    points, computed in Python ints over one denominator fixed at compile
    time.

    Compiling lists the distinct monomials of all the p_j, closed under
    taking a parent: each monomial of degree k > 0 is one of degree k - 1
    times one variable.  It reads the packed keys (the exponent parts of
    `_vectors`) and builds no exponent tuple: a key's degree is its top
    field, its parent along variable i is the key less one in the degree
    field and one in i's, and only the variables whose field is nonzero are
    tried, from variable 0 on, a parent that is a term's monomial preferred.
    The monomials are computed a degree at a time, one product each, so the
    powers of each coordinate are built once and shared by every p_j, and a
    term costs one product more.  Each degree, and the term sums of all the
    p_j, run as C-level `map`s over the whole batch.

    Values travel in one layout, over Q as over an etale field of absolute
    degree m (Q is m = 1): a batch of b points is given coordinate by
    coordinate, coordinate i as the int columns of its flat coordinates
    over the batch, one column for a rational coordinate and m for any
    other; and each polynomial's values come back as the m columns of their
    flat coordinates.  The coefficients are the int vectors of their flat
    coordinates over their least common denominator L.  With D the top
    total degree and Dt the denominator of the field's multiplication
    tensor (1 over Q), every value comes back as its numerator over `den` =
    L * Dt^D, or over den * B^D when the coordinates are numerators over a
    common denominator B (`scale`).  `at` picks its route from the shape
    of the coordinates:
    - one column each: the monomials' values are ints, and a coefficient
      column times them gives that flat coordinate of the terms.  At one
      point the monomial values are one list, gathered a degree at a time
      by the parents' indices.  At more points each monomial's values are
      one tuple over the batch (a column); a degree multiplies the chained
      columns of its parents by those of its variables, and drops the
      columns of one degree less that no term reads;
    - else, the one-column coordinates padded with zero columns: every
      product goes through the tensor column by column
      (`StructureTensor.mul_columns`).  A monomial of degree k > 0 then
      carries Dt^(k - 1), and its product with a coefficient one Dt more,
      so in both routes a term of degree k is scaled by (B * Dt)^(D - k).
    The term products come point by point, and their running sum is kept
    only where a polynomial's terms end, so a batch holds its monomials'
    columns and m values per polynomial and point.
    """

    __slots__ = ("field", "nvars", "den", "_degree", "_tensor", "_levels", "_mono",
                 "_codeg", "_cols", "_starts", "_ends", "_first")

    def __init__(self, polys: Sequence[Polynomial]):
        first = polys[0]
        for p in polys:
            first._check(p)
        field, n = first.field, first.nvars
        L = math.lcm(*(p._den for p in polys))
        m = field.absolute_degree
        # each polynomial's {packed monomial: flat numerators over L}; a zero
        # polynomial gets one zero constant term, so that every polynomial's
        # terms end at their own place
        terms = []
        for p in polys:
            ts = p._vectors()
            f = L // p._den
            if f != 1:
                ts = {k: [x * f for x in c] for k, c in ts.items()}
            terms.append(ts or {0: [0] * m})
        self._tensor = field.tensor()
        # a monomial's key holds its degree above n exponent fields of W
        # bits, variable 0's the highest
        shift = n * W
        D = max((k >> shift for ts in terms for k in ts), default=0)
        # by_degree[d]: each monomial of degree d with its (parent, variable)
        by_degree = [{} for _ in range(D + 1)]
        for ts in terms:
            for k in ts:
                by_degree[k >> shift][k] = None
        degree_one = 1 << shift
        for d in range(D, 0, -1):
            level, lower = by_degree[d], by_degree[d - 1]
            for k in level:
                step = None
                rest = k & (degree_one - 1)
                while rest:
                    at = (rest.bit_length() - 1) // W
                    parent = k - (degree_one | 1 << at * W)
                    if parent in lower:
                        step = parent, n - 1 - at
                        break
                    step = step or (parent, n - 1 - at)
                    rest &= (1 << at * W) - 1
                else:
                    lower[step[0]] = None
                level[k] = step
        index = {0: 0}
        levels, ranges = [], []
        for level in by_degree[1:]:
            parents, xs = [], []
            ranges.append(range(len(index), len(index) + len(level)))
            for k, (parent, i) in level.items():
                index[k] = len(index)
                parents.append(index[parent])
                xs.append(i)
            levels.append((parents, xs))
        self._mono = [index[k] for ts in terms for k in ts]
        # the monomials of degree 1 are coordinates: first[j] is the variable
        # of monomial j + 1.  Each higher degree comes with the indices of
        # the monomials of one degree less.
        self._first = levels[0][1] if levels else []
        self._levels = [(parents, xs, below) for (parents, xs), below in zip(levels[1:], ranges)]
        self._codeg = [D - (k >> shift) for ts in terms for k in ts]
        self._cols = list(map(list, zip(*[c for ts in terms for c in ts.values()])))
        # polynomial j is the terms from starts[j] up to ends[j]
        self._ends = list(itertools.accumulate(map(len, terms)))
        self._starts = [0] + self._ends[:-1]
        self.field, self.nvars, self._degree = field, n, D
        self.den = L * self._tensor.den**D

    def at(self, coords: Sequence[Sequence[Sequence[int]]], size: int, scale: int = 1) -> list:
        """Each polynomial's values, as the m int columns of their flat
        numerators, at the batch of `size` points whose coordinate i has
        the flat int columns coords[i] over scale."""
        b, T = size, self._tensor
        if max(map(len, coords), default=1) == 1:
            xs = [c[0] for c in coords]
            if b == 1:
                pt = [x[0] for x in xs]
                mv = [1]
                mv += map(pt.__getitem__, self._first)
                get = mv.__getitem__
                for parents, variables, _ in self._levels:
                    mv += list(map(operator.mul, map(get, parents),
                                   map(pt.__getitem__, variables)))

                def monos():
                    return map(get, self._mono)
            else:
                mv = [(1,) * b]
                mv += map(xs.__getitem__, self._first)
                get = mv.__getitem__
                read = set(self._mono).__contains__
                for parents, variables, below in self._levels:
                    level = map(operator.mul, chain.from_iterable(map(get, parents)),
                                chain.from_iterable(map(xs.__getitem__, variables)))
                    mv += list(zip(*[level] * b))
                    # the monomials of one degree less that no term reads
                    for i in itertools.filterfalse(read, below):
                        mv[i] = None

                def monos():
                    # point by point, the values of the terms' monomials
                    return chain.from_iterable(zip(*map(get, self._mono)))
            cols = self._cols
            if scale != 1 or T.den != 1:
                cols = self._weighted(cols, scale, T.den)
            vals = [map(operator.mul, chain.from_iterable(itertools.repeat(col, b)), monos())
                    for col in cols]
        else:
            m, zero = len(self._cols), [0] * b
            # flat[l][i]: flat coordinate l of coordinate i over the batch
            flat = list(zip(*[c if len(c) == m else [c[0]] + [zero] * (m - 1) for c in coords]))
            # the constant monomial is zero here, and the constant terms are
            # added to the products below
            mv = [[(0,) * b] for _ in range(m)]
            for c, coord in zip(mv, flat):
                c += map(coord.__getitem__, self._first)
            read = set(self._mono).__contains__
            for parents, variables, below in self._levels:
                left = [list(chain.from_iterable(map(c.__getitem__, parents))) for c in mv]
                right = [list(chain.from_iterable(map(coord.__getitem__, variables)))
                         for coord in flat]
                spent = list(itertools.filterfalse(read, below))
                for c, product in zip(mv, T.mul_columns(left, right)):
                    c += zip(*[iter(product)] * b)
                    for i in spent:
                        c[i] = None
            monos = [list(chain.from_iterable(zip(*map(c.__getitem__, self._mono)))) for c in mv]
            f = scale * T.den
            cols = self._cols if f == 1 else self._weighted(self._cols, f, 1)
            vals = T.mul_columns([col * b for col in cols], monos)
            if 0 in self._mono:
                # the constant terms: their coefficients, at every point
                vals = [map(operator.add, v, [0 if k else c for c, k in zip(col, self._mono)] * b)
                        for v, col in zip(vals, cols)]
        return list(zip(*[self._sums(v, b) for v in vals]))

    def _weighted(self, cols: list, scale: int, dt: int) -> list:
        """The coefficient columns with term t times dt^D * scale^codeg(t)."""
        f = dt**self._degree
        w = [f * scale**j for j in range(self._degree + 1)]
        weights = list(map(w.__getitem__, self._codeg))
        return [list(map(operator.mul, col, weights)) for col in cols]

    def _sums(self, products, b: int) -> list:
        """Each polynomial's sums of its share of the term products, given
        point by point, as a tuple over the batch of b points.  Over more
        than one point the running sum is kept only at the end of each
        polynomial's terms, and the differences of those are the sums."""
        if b == 1:
            if len(self._ends) == 1:
                return [(sum(products),)]
            if len(self._ends) == len(self._mono):  # one term a polynomial
                return list(zip(products))
            acc = list(itertools.accumulate(products, initial=0))
            get = acc.__getitem__
            return list(zip(map(operator.sub, map(get, self._ends), map(get, self._starts))))
        ending = [False] * len(self._mono)
        for e in self._ends:
            ending[e - 1] = True
        ending = chain((True,), chain.from_iterable(itertools.repeat(ending, b)))
        ends = list(compress(itertools.accumulate(products, initial=0), ending))
        sums = map(operator.sub, itertools.islice(ends, 1, None), ends)
        return list(zip(*zip(*[sums] * len(self._ends))))

    def elements(self, values, scale: int = 1) -> list:
        """The field elements, point by point, of the columns of one
        polynomial's values that `at` returned."""
        den = self.den * scale**self._degree
        return [self.field.from_flat([Fraction(x, den) for x in v]) for v in zip(*values)]


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """num/den with den nonzero.  Reduction is lazy: the denominator is kept
    monic (graded-lex leading coefficient 1) and no multivariate gcd is run."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            if not (den.total_degree() == 0 and den.is_monic() and den.nvars == num.nvars
                    and den.field == num.field):
                den = Polynomial.const(num.field, num.nvars, num.field.one)
        elif not den.is_monic():
            inv = den.leading_term()[1].inv()
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.const(p.field, p.nvars, p.field.one))

    @staticmethod
    def const(field, nvars: int, c) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.const(field, nvars, c))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inv(self) -> "RationalFunction":
        return RationalFunction(self.den, self.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inv() ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    def __repr__(self):
        if self.den.terms == {(0,) * self.den.nvars: self.den.field.one}:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# linear substitution with denominator clearing


def clear_denominators(M: Sequence[Sequence[RationalFunction]]):
    """(N, D) for a matrix M of rational functions: D is the product of the
    distinct denominators of the nonzero entries and N = D * M, a matrix of
    polynomials whose zero entries are one shared zero.  Denominators are
    told apart by identity first: decoded witnesses share them."""
    field = M[0][0].num.field
    nx = M[0][0].num.nvars
    dens = []
    where = []  # per row, the index in dens of each entry's denominator, None at a zero
    for row in M:
        at = []
        for entry in row:
            k = None
            if not entry.is_zero():
                den = entry.den
                k = next((k for k, d in enumerate(dens) if d is den or d == den), None)
                if k is None:
                    k = len(dens)
                    dens.append(den)
            at.append(k)
        where.append(at)
    one = Polynomial.const(field, nx, field.one)
    D = one
    for d in dens:
        D = D * d
    # one exact division per distinct denominator; a quotient of 1 multiplies nothing
    quots = [None if q == one else q for q in (D.exact_div(d) for d in dens)]
    zero = Polynomial.zero(field, nx)
    N = tuple(
        tuple(
            zero if k is None else entry.num if quots[k] is None else entry.num * quots[k]
            for entry, k in zip(row, at)
        )
        for row, at in zip(M, where)
    )
    return N, D


def linear_forms(N: Sequence[Sequence[Polynomial]]):
    """The entries of N(X) * Y, as polynomials in the X then Y variables.

    Each row is built from the packed forms of its entries, as `embed` shifts
    keys: a key of N[i][j] keeps its exponent fields, moved up past the n new
    ones, gains y_j's field and one more degree, and is scaled to the row's
    common denominator."""
    n = len(N)
    field = N[0][0].field
    nx = N[0][0].nvars
    nv = nx + n
    G = field.generator_bits
    gmask = (1 << G) - 1
    check_degree(max(entry.total_degree() for row in N for entry in row) + 1)
    shift = nx * W
    mask = (1 << shift) - 1
    top = nv * W
    up = n * W
    out = []
    for row in N:
        den = math.lcm(*(entry._den for entry in row))
        nums = {}
        for j, entry in enumerate(row):
            if entry._nums:
                f = den // entry._den
                y = 1 << ((n - 1 - j) * W)
                for k, c in entry._nums.items():
                    x = k >> G
                    x = (((x >> shift) + 1) << top) | ((x & mask) << up) | y
                    nums[(x << G) | (k & gmask)] = c * f
        out.append(Polynomial._from_nums(field, nv, nums, den))
    return out


def left_multiplication(tensor):
    """L_x, left multiplication by the generic element x = sum_i x_i b_i of
    the algebra whose structure constants are the `StructureTensor` tensor,
    as polynomials in n variables: L_x[l][j] = sum_i T[i][j][l] x_i, read
    off the kappa_0 rows T[i m][j m]."""
    n, m = tensor.dim, tensor.field.absolute_degree
    keys, cols = _operator_keys(tensor.field, n)
    parts = [[{} for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(tensor.rows[::m]):
        for j, row in enumerate(plane[::m]):
            for L, c in row:
                l, t = cols[L]
                parts[l][j][keys[i] | t] = c
    return _operator(tensor.field, n, parts, tensor.den)


def u_operator(tensor, associative: bool):
    """U_v, the map w -> {v w v} of the generic element v, as polynomials in
    n variables: column j is {v b_j v}.  For an associative product that is
    (v b_j) v, so U_v[l][j] = sum_ab (sum_k T[a][j][k] T[k][b][l]) v_a v_b
    over den^2.  Otherwise it is the U-operator 2 (v.b_j).v - b_j.(v.v) of
    the Jordan product x.y = P(x, y) / 2, P[i][j] = T[i][j] + T[j][i],
    which is v b_j v again in an alternative algebra: P is symmetric, so
    each pair of constants P[a][j][k] P[k][b][l] adds 2 v_a v_b to entry
    [l][j] (the first term) and -v_a v_j to entry [l][b] (the second, for
    b_b), all over 4 den^2.  On the restriction of scalars a, b and j run
    over the kappa_0 indices and k and l over all (`_operator_keys`)."""
    n, m, rows = tensor.dim, tensor.field.absolute_degree, tensor.rows
    keys, cols = _operator_keys(tensor.field, n)
    parts = [[defaultdict(int) for _ in range(n)] for _ in range(n)]
    if associative:
        for a, plane in enumerate(rows[::m]):
            for j, row in enumerate(plane[::m]):
                for k, c1 in row:
                    for b, second in enumerate(rows[k][::m]):
                        for L, c2 in second:
                            l, t = cols[L]
                            parts[l][j][keys[a] + keys[b] | t] += c1 * c2
        return _operator(tensor.field, n, parts, tensor.den**2)
    P = [[tensor.combine(((1, rows[k][b * m]), (1, rows[b * m][k]))) for b in range(n)]
         for k in range(n * m)]
    for a in range(n):
        for j in range(n):
            for k, c1 in P[a * m][j].items():
                for b, row in enumerate(P[k]):
                    for L, c2 in row.items():
                        c = c1 * c2
                        l, t = cols[L]
                        parts[l][j][keys[a] + keys[b] | t] += c + c
                        parts[l][b][keys[a] + keys[j] | t] -= c
    return _operator(tensor.field, n, parts, 4 * tensor.den**2)


def _operator_keys(field, n: int):
    """(keys, cols): keys[i] the packed exponent part of x_i, shifted past
    the generator bits, and cols[L] = (l, gen.keys[k]) for an index L = l m
    + k of the restriction of scalars (`GeneratorKeys`), so that a term c x
    kappa_k of entry l has the key x | gen.keys[k]."""
    gen, m = field.generator_keys(), field.absolute_degree
    keys = [(1 << n * W | 1 << (n - 1 - i) * W) << gen.bits for i in range(n)]
    return keys, [(L // m, gen.keys[L % m]) for L in range(n * m)]


def _operator(field, n: int, parts, den: int):
    """The n x n matrix of polynomials whose entry [l][j] is parts[l][j] /
    den, a dict {packed key: int} (`_operator_keys`); the zero entries are
    one shared zero."""
    zero = Polynomial.zero(field, n)
    nums = [[{k: c for k, c in p.items() if c} for p in row] for row in parts]
    return tuple(tuple(Polynomial._from_nums(field, n, p, den) if p else zero for p in row)
                 for row in nums)


def substitute_linear(p: Polynomial, M: Sequence[Sequence[RationalFunction]]):
    """For homogeneous p in Y and a square matrix M of rational functions in X,
    return (q, D) with q = D^deg(p) * p(M*Y), a polynomial in the X then Y
    variables, where D is the product of the distinct entry denominators."""
    n = p.nvars
    if len(M) != n or any(len(row) != n for row in M):
        raise ValueError("matrix must be %d x %d" % (n, n))
    if not p.is_homogeneous():
        raise ValueError("substitute_linear needs a homogeneous polynomial")
    if n == 0:
        raise ValueError("no variables to substitute")
    if M[0][0].num.field != p.field:
        raise TypeError("matrix and polynomial use different coefficient fields")
    N, D = clear_denominators(M)
    return p.compose(linear_forms(N)), D


# ---------------------------------------------------------------------------
# deterministic nonzero points


def first_nonzero_point(p: Polynomial):
    """First point of a fixed enumeration where p does not vanish.

    Tries the all-ones vector, then integer vectors from a seeded generator
    over boxes that double every eight attempts.  Deterministic across runs.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no nonzero point")
    n = p.nvars
    if n == 0:
        return ()
    point = (1,) * n
    if not p.eval_int(point).is_zero():
        return point
    rng = random.Random(0)
    bound = 2
    attempt = 0
    while True:
        point = tuple(rng.randint(-bound, bound) for _ in range(n))
        if not p.eval_int(point).is_zero():
            return point
        attempt += 1
        if attempt % 8 == 0:
            bound *= 2


# ---------------------------------------------------------------------------
# perfect d-th power detection


def _binom_frac(x: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out


def _trunc(p: Polynomial, bound: int) -> Polynomial:
    """The terms of p of total degree at most `bound`: a filter on the
    degree field of the keys."""
    shift = p.nvars * W + p.field.generator_bits
    nums = {k: c for k, c in p._nums.items() if k >> shift <= bound}
    return Polynomial._from_nums(p.field, p.nvars, nums, p._den)


def is_dth_power(p: Polynomial, d: int):
    """Decide whether p = c * g^d for a scalar c and a polynomial g.

    Returns (c, g) with g having leading coefficient 1, or None.  The root is
    extracted as a truncated power series after shifting so the constant
    section is nonzero, then certified by exact re-expansion.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if p.is_zero():
        raise ValueError("is_dth_power needs a nonzero polynomial")
    deg = p.total_degree()
    if deg % d != 0:
        return None
    e = deg // d
    field = p.field
    n = p.nvars

    shift = first_nonzero_point(p)
    fwd = [
        Polynomial.variable(field, n, i)
        + Polynomial.const(field, n, field.from_rational(shift[i]))
        for i in range(n)
    ]
    q = p.compose(fwd) if n else p
    c0 = q.constant_coeff()

    r = q.scale(c0.inv())
    w = r - Polynomial.const(field, n, field.one)
    s = Polynomial.const(field, n, field.one)
    wj = Polynomial.const(field, n, field.one)
    for j in range(1, e + 1):
        wj = _trunc(wj * w, e)
        if wj.is_zero():
            break
        s = s + wj.scale(field.from_rational(_binom_frac(Fraction(1, d), j)))
    # certify: the series root must be an exact polynomial root
    if (s**d).scale(c0) != q:
        return None

    back = [
        Polynomial.variable(field, n, i)
        - Polynomial.const(field, n, field.from_rational(shift[i]))
        for i in range(n)
    ]
    g = s.compose(back) if n else s
    _, lc = g.leading_term()
    c = c0 * lc**d
    g = g.scale(lc.inv())
    return c, g


# ---------------------------------------------------------------------------
# identity checking


@dataclass(frozen=True)
class IdentityReport:
    verdict: str  # "proved" | "refuted" | "evidence"
    mode: str  # "symbolic" | "random"
    samples: Optional[int] = None
    seed: Optional[int] = None
    box_halfwidth: Optional[int] = None
    counterexample: Optional[Tuple[int, ...]] = None
    per_sample_bound: Optional[Fraction] = None
    overall_bound: Optional[Fraction] = None

    def holds(self) -> bool:
        return self.verdict in ("proved", "evidence")


DEFAULT_BOX_HALFWIDTH = 10**6
DEFAULT_SAMPLES = 100


def verify_identity(
    lhs: Polynomial,
    rhs: Polynomial,
    mode: str = "symbolic",
    samples: int = DEFAULT_SAMPLES,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
) -> IdentityReport:
    """Compare two polynomials.

    symbolic: canonical subtraction; "proved" is a proof, and a refutation
    carries a concrete point where the sides differ.
    random: exact evaluation at uniformly drawn integer points (`sample_identity`);
    all-match is "evidence" with a min((total degree)/(box size), 1) bound per
    sample.
    """
    lhs._check(rhs)
    if mode == "symbolic":
        diff = lhs - rhs
        if diff.is_zero():
            return IdentityReport(verdict="proved", mode="symbolic")
        pt = first_nonzero_point(diff) if diff.nvars else ()
        return IdentityReport(verdict="refuted", mode="symbolic", counterexample=pt)
    if mode != "random":
        raise ValueError("mode must be 'symbolic' or 'random'")
    if seed is None:
        raise ValueError("random mode needs an explicit seed")
    deg = max(lhs.total_degree(), rhs.total_degree(), 0)
    prog = None  # both sides over one denominator, compiled at the first sample

    def agree(coords, size):
        nonlocal prog
        if prog is None:
            prog = EvalProgram([lhs, rhs])
        return columns_equal(*prog.at([[c] for c in coords], size))

    return sample_identity(agree, lhs.nvars, deg, samples, seed, box_halfwidth)


SAMPLE_BATCH = 64
"""The most points `sample_identity` hands `agree` at once.  It bounds the
memory of a check whatever its sample count: a default check of
DEFAULT_SAMPLES points off the poles is a first point alone, then batches
of 64 and 35."""


def columns_equal(x, y) -> list:
    """Whether, at each point of a batch, the values whose flat int columns
    are x and y are equal."""
    return list(reduce(partial(map, operator.and_), map(partial(map, operator.eq), x, y)))


def sample_identity(
    agree: Callable[[list], list],
    nvars: int,
    degree: int,
    samples: int,
    seed: int,
    box_halfwidth: int,
) -> IdentityReport:
    """Random-mode check of an identity of total degree at most `degree`.

    Each point draws its nvars coordinates in turn from one generator seeded
    with `seed`, uniform in [-h, h] for h = box_halfwidth.  A coordinate is
    the first getrandbits(k) below 2h + 1, less h, where k is the bit length
    of 2h + 1: that is how CPython's randrange(-h, h + 1) draws, so the
    points are the ones it gives, without a call to it per coordinate.
    agree(coords, size) says, for each point of a batch of `size` points,
    whether the two sides are equal there, or gives None at a pole of the
    identity, where the point is redrawn (at most 50 * samples draws in
    all).  The batch comes as its coordinate columns: coords[i] is the list
    of coordinate i at every point, sliced from the batch's run of draws,
    and `size` counts the points also when nvars is 0 and there are no
    columns.  A point is made a tuple only as a counterexample.  The first
    disagreement refutes; agreement at every sample is "evidence" with the
    Schwartz-Zippel bound min(degree / box size, 1) per sample; at least
    one sample is required.

    The points are drawn and evaluated in batches: the first point alone,
    which refutes a wrong identity with probability at least
    1 - degree / box size, then at most SAMPLE_BATCH points at a time, and
    never more than the samples still missing or the draws still allowed.
    A batch is drawn in one run of the generator and its answers are read
    in draw order, so the points, the counterexample, the pole redraws and
    the bounds are those of drawing and checking one point at a time.

    The callers' agree (`verify_identity`'s and the one witness check's)
    evaluate each side on `EvalProgram`s, compiled before sampling or at
    the first point, and compare numerators over denominators cleared at
    compile time, column by column (`columns_equal`)."""
    if samples < 1:
        raise ValueError("samples must be positive, got %d" % samples)
    if box_halfwidth < 0:
        raise ValueError("box_halfwidth must be nonnegative, got %d" % box_halfwidth)
    getrandbits = random.Random(seed).getrandbits
    h = box_halfwidth
    width = 2 * h + 1
    k = width.bit_length()

    def draw(m):
        # each coordinate draws k bits until they are below width, so the
        # coordinates are the draws below width, in order
        return [r - h for r in map(getrandbits, itertools.repeat(k, m)) if r < width]

    def run(count):
        m = count * nvars
        coords = draw(m)
        while len(coords) < m:
            coords += draw(m - len(coords))
        return coords

    done = 0
    attempts = 0
    batch = 1
    while done < samples:
        count = min(batch, samples - done, 50 * samples - attempts)
        if not count:
            raise RuntimeError("could not avoid witness poles while sampling")
        coords = run(count)
        for j, ok in enumerate(agree([coords[i::nvars] for i in range(nvars)], count)):
            attempts += 1
            if ok is None:
                continue
            if not ok:
                return IdentityReport(
                    verdict="refuted",
                    mode="random",
                    samples=samples,
                    seed=seed,
                    box_halfwidth=box_halfwidth,
                    counterexample=tuple(coords[j * nvars : (j + 1) * nvars]),
                )
            done += 1
        batch = SAMPLE_BATCH
    per = min(Fraction(degree, 2 * box_halfwidth + 1), Fraction(1))
    return IdentityReport(
        verdict="evidence",
        mode="random",
        samples=samples,
        seed=seed,
        box_halfwidth=box_halfwidth,
        per_sample_bound=per,
        overall_bound=per**samples,
    )


def compose_estimate(p: Polynomial, args: Sequence[Polynomial]) -> int:
    """Upper bound on the number of monomial products expanded by p.compose(args)."""
    sizes = [max(1, a.term_count()) for a in args]
    total = 0
    for e in p.exponents():
        t = 1
        for i, ei in enumerate(e):
            if ei:
                t *= sizes[i] ** ei
            if t > 10**15:
                return 10**15
        total += t
        if total > 10**15:
            return 10**15
    return total


def ring_matrix_determinant(rows, zero):
    """Determinant of a square matrix of polynomials from the ring of `zero`,
    by fraction-free elimination with exact division (`linalg.bareiss`)."""
    one = Polynomial.const(zero.field, zero.nvars, zero.field.one)
    return linalg.bareiss(rows, zero, one, _poly_divider)


def _poly_divider(b: Polynomial):
    # exact_div inverts the leading coefficient of b.  When that inverse
    # exists b is no zero divisor, which bareiss's zero shortcut relies on.
    b.leading_term()[1].inv()
    return lambda a: a.exact_div(b)
