"""Orthogonal decomposition of nondegenerate d-linear spaces, d >= 3.

The endomorphisms that slide between slots of the polarization form a
commutative matrix algebra C, the center; its primitive idempotents cut the
space into the unique unordered orthogonal decomposition.  `center_algebra`
finds a basis of C with one elimination, reads the coordinates of each
product of basis matrices off that basis, and keeps them as a
`StructureTensor`.  The splitting then works in the regular representation
of C, as in Friedl & Ronyai (STOC 1985): an element is its coordinate
vector, multiplied through the tensor, and n x n matrices are built only for
the final idempotents.  Idempotents are found from minimal polynomials of a
deterministic element sequence, split by gcd-based coprime factorization and
rational roots, and lifted through the nilradical.  A field block is
certified at its first full-degree generator: an element whose minimal
polynomial is irreducible (by the rational-root test, at degree at most 3)
of the block's degree generates it, so the block is a field.  Otherwise a
block is certified (or refined) over Q when the gcd pipeline stalls, by the
rational-root test, by the degrees of such irreducible minimal polynomials,
and by univariate factorization; the rank of the trace form of C bounds
the semisimple part.

The center is found and split over Q, in Python ints, for every coefficient
field: over an etale field K the slot-sliding equations are restricted to Q
and solved as over Q, which gives the center as an algebra over Q from the
start, a block of the Q-dimension of K is K*e, read off the trace of
multiplication by its idempotent and never built or searched, and the
final idempotents read their entries in K back off their flat coordinates.
A vector is a pair (a, den) of an int list and a positive denominator with
no common factor; the elimination gets integer dict rows; a minimal
polynomial comes from a Krylov sequence whose powers stay integral
(`_Block.minpoly`); and univariate polynomials are primitive integer
coefficient lists, whose gcds come from primitive pseudo-remainder sequences
(Collins, J. ACM 14, 1967; Brown, J. ACM 18, 1971).

The slot-sliding system has several times more equations than unknowns,
most of them redundant.  The elimination (`linalg`) takes the equations one
at a time against a basis of reduced rows.  An equation is reduced at each
pivot it holds by one fraction-free update, and dropped when it reaches
zero, so a redundant one changes no basis row.  One that survives takes its
first column as a new pivot and is cleared from the basis rows holding that
column.  The new pivot lies right of each such row's leading column, so
every basis row keeps its pivot as its leading column, and the result is
the unique reduced row echelon form whatever the order of the equations.

`krull_schmidt_decompose` does each step once, in ints: one polarization
feeds the radical's rank and the center, and one composition phi(P' y), P'
the component bases side by side as int columns, split on its packed keys,
gives every component form and the reconstruction check.  With one
component it keeps the center's trace-form rank, so `decompose --absolute`
builds no second.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import linalg
from .coeffield import (
    QQ,
    FieldElement,
    RationalField,
    StructureTensor,
    ZeroDivisor,
    from_coordinates,
    integral_coordinates,
    restrict_scalars,
)
from .forms import (
    HomogeneousForm,
    LinearMap,
    SymmetricTensor,
    polarize,
    radical_equations,
    substitute_vectors,
)
from .poly import W, Polynomial


class DegenerateInput(ValueError):
    """Decomposition requires a nondegenerate form."""


class DegreeTooSmall(ValueError):
    """Quadratic (and linear) forms have no unique decomposition of this kind."""


class CenterNotClosed(RuntimeError):
    """The slot-sliding solution space failed to be a commutative algebra."""


Matrix = Tuple[Tuple[FieldElement, ...], ...]


@dataclass(frozen=True)
class CenterAlgebra:
    """The center with basis b_0, ..., b_(dim-1) over the coefficient field
    K, as an algebra over Q: its basis is kappa_l b_k at index k m + l
    (kappa_0 = 1, ..., kappa_(m-1) the flat basis of K), multiplied through
    `tensor`, and the identity matrix is the vector `unit` (a, den) in it.
    matrices[q] is basis element q as n dict rows of ints over a positive
    int, entry (a, i) at columns i m, ..., i m + m - 1 of row a."""

    field: object
    dim_space: int  # n: the matrices are n x n
    tensor: StructureTensor
    unit: tuple
    matrices: tuple

    @property
    def dim(self) -> int:
        return self.tensor.dim // self.field.absolute_degree

    @property
    def basis(self) -> Tuple[Matrix, ...]:
        field, n = self.field, self.dim_space
        return tuple(tuple(_entries(field, row, s, n) for row in rows)
                     for rows, s in self.matrices[::field.absolute_degree])

    @property
    def structure(self):
        """structure[i][j]: the coordinates of basis[i] * basis[j] over K."""
        t, m = self.tensor, self.field.absolute_degree
        return tuple(tuple(_entries(self.field, dict(row), t.den, self.dim) for row in plane[::m])
                     for plane in t.rows[::m])


def _entries(field, row: dict, den: int, n: int) -> tuple:
    """The n field elements whose flat coordinates, over den, are the dict
    row of ints `row`: element i at columns i m, ..., i m + m - 1."""
    if isinstance(field, RationalField):
        return from_coordinates(field, [row.get(i, 0) for i in range(n)], den)
    m, zero = field.absolute_degree, field.zero
    return tuple(field.from_flat([Fraction(row.get(c + l, 0), den) for l in range(m)])
                 if any(row.get(c + l) for l in range(m)) else zero for c in range(0, n * m, m))


@dataclass(frozen=True)
class Component:
    dim: int
    basis_columns: Tuple[Tuple[FieldElement, ...], ...]
    form: HomogeneousForm


@dataclass(frozen=True)
class Decomposition:
    components: Tuple[Component, ...]
    change_of_basis: LinearMap  # columns are the concatenated component bases
    idempotents: Tuple[Matrix, ...]
    center_dim: int  # over the coefficient field
    # the rank over Q of the center's trace form, whose kernel is the
    # nilradical; computed only for a single component, else None
    nilradical_rank: Optional[int]
    # how the splitting went, kept out of equality and of the JSON: the
    # blocks it searched, the minimal polynomials it took, and whether
    # sympy factored one of them
    splitting_rounds: int = dataclasses.field(default=0, compare=False)
    minimal_polynomials: int = dataclasses.field(default=0, compare=False)
    sympy_factored: bool = dataclasses.field(default=False, compare=False)

    @property
    def absolutely_indecomposable(self) -> Optional[bool]:
        """Whether the single component stays indecomposable over every
        extension field: the center modulo its nilradical is the coefficient
        field K, of rank [K:Q] over Q.  None for two or more components."""
        if self.nilradical_rank is None:
            return None
        return self.nilradical_rank == self.change_of_basis.field.absolute_degree


def _reduced(a, den: int):
    """The vector (a, den) with the common factor of den and the ints a
    divided out."""
    if den != 1:
        g = math.gcd(den, *a)
        if g != 1:
            return [v // g for v in a], den // g
    return a, den


def _integer_tensor(rows, den: int) -> StructureTensor:
    """The tensor over Q of the int constants rows over den, with their
    common factor divided out."""
    g = math.gcd(den, *(v for plane in rows for row in plane for _, v in row))
    if g != 1:
        rows = tuple(tuple(tuple((k, v // g) for k, v in row) for row in plane)
                     for plane in rows)
        den //= g
    return StructureTensor(QQ, rows, den)


# ---------------------------------------------------------------------------
# the center algebra


def center_algebra(theta: SymmetricTensor) -> CenterAlgebra:
    """Solve theta(f v1, v2, ...) = theta(v1, f v2, ...) for matrices f.

    Unknown f enters through its action on basis vectors; one linear equation
    per variable pair i < j and per sorted (d-2)-tuple of spectator slots.
    The equations are restricted to Q (`restrict_scalars`) and solved once,
    in ints: over K the kernel vector of free column c m + l is the flat
    coordinates of kappa_l b_c, b_c that of free column c over K (Friedl &
    Ronyai, STOC 1985).  So only the b_i b_j are matrix products, and
    (kappa_l b_i)(kappa_l' b_j) = kappa_l kappa_l' b_i b_j comes from K's tensor.
    """
    field = theta.field
    n = theta.dim
    d = theta.degree
    if d < 2:
        raise DegreeTooSmall("the slot-sliding system needs degree >= 2")
    rational = isinstance(field, RationalField)
    m = field.absolute_degree
    N = n * m  # the width of a matrix row of flat coordinates

    # Column a * n + i holds f[a][i].  Equation (rest, i, j) has the
    # coefficient theta(rest, a, j) at f[a][i] and -theta(rest, a, i) at
    # f[a][j], so each nonzero theta(rest, a, x) lands in the equations whose
    # pair holds x.  Those two columns never coincide within one equation.
    # A repeated index gives the same (rest, a, x) at each of its positions,
    # so a is read at the first position of its value, and x at the first
    # position of its value other than a's.  Every entry is its numerator
    # over the tensor's denominator: an int over Q, a flat int vector over K.
    eqs = {}
    for idx, val in theta.int_entries()[0].items():
        neg = -val if rational else [-v for v in val]
        for p in range(d):
            if p and idx[p] == idx[p - 1]:
                continue
            for q in range(d):
                if q == p or (q and idx[q] == idx[q - 1] and q - 1 != p):
                    continue
                rest = tuple(v for k, v in enumerate(idx) if k != p and k != q)
                a, x = idx[p], idx[q]
                for i in range(x):
                    eqs.setdefault((rest, i, x), {})[a * n + i] = val
                for j in range(x + 1, n):
                    eqs.setdefault((rest, x, j), {})[a * n + j] = neg
    red, pivots = linalg.rref(QQ, restrict_scalars(field, [eqs[key] for key in sorted(eqs)]))
    # Over a field the pivots come in whole blocks of m columns (see
    # `linalg`); a product of fields can show a zero-divisor pivot instead.
    if len(pivots) != m * len({p // m for p in pivots}):
        raise ZeroDivisor("zero divisor in %r" % (field,))

    # The kernel vector of a free column is 1 there, 0 at the other free
    # columns and -red[r][free] / red[r][pivot] at the pivot of row r, so a
    # matrix in the span has its coordinates at the free columns.  It is
    # kept as an int vector over a positive scale.
    pivot_set = set(pivots)
    free = [c for c in range(n * N) if c not in pivot_set]
    at = {c: [] for c in free}  # free column -> (pivot, entry, pivot entry)
    for row, pc in zip(red, pivots):
        for c, v in row.items():
            if c != pc:
                at[c].append((pc, v, row[pc]))
    vectors, scales = [], []
    for fc in free:
        s = math.lcm(*(a for _, _, a in at[fc]))
        vec = {fc: s}
        for pc, v, a in at[fc]:
            vec[pc] = -v * (s // a)
        g = math.gcd(*vec.values())
        if g != 1:
            vec = {c: v // g for c, v in vec.items()}
            s //= g
        vectors.append(vec)
        scales.append(s)
    matrices = []
    for vec in vectors:
        mat = [{} for _ in range(n)]
        for c in sorted(vec):
            mat[c // N][c % N] = vec[c]
        matrices.append(mat)

    def coords(mat):
        """The coordinates of the matrix with dict rows mat, over the
        matrix's own denominator, or None outside the span."""
        out = [mat[c // N].get(c % N, 0) for c in free]
        scale = math.lcm(*(s for s, ck in zip(scales, out) if ck))
        rest = {a * N + i: x * scale for a, row in enumerate(mat) for i, x in row.items()}
        for ck, vec, s in zip(out, vectors, scales):
            if ck:
                f = ck * (scale // s)
                for c, x in vec.items():
                    v = rest[c] - f * x if c in rest else -(f * x)
                    if v:
                        rest[c] = v
                    else:
                        del rest[c]
        return None if rest else out

    unit = coords([{a * m: 1} for a in range(n)])
    if unit is None:
        raise CenterNotClosed("identity matrix missing from the sliding solution space")

    # Row a of b_i b_j sums coordinate l of b_i[a][k] times row k of
    # kappa_l b_j, so b_j enters as its restriction: the rows k m + l of the
    # basis vectors kappa_l b_j, over their common scale S[j].
    c = len(free) // m
    S = [math.lcm(*scales[q:q + m]) for q in range(0, len(free), m)]
    right = []
    for j in range(c):
        block = list(zip(matrices[j * m:j * m + m], scales[j * m:j * m + m]))
        right.append([rows[k] if s == S[j] else {i: v * (S[j] // s) for i, v in rows[k].items()}
                      for k in range(n) for rows, s in block])
    structure = [[None] * c for _ in range(c)]
    for i in range(c):
        for j in range(c):
            x = coords(linalg.mat_mul(matrices[i * m], right[j]))
            if x is None:
                raise CenterNotClosed("center is not closed under multiplication")
            structure[i][j] = x  # over scales[i m] * S[j]
    den = math.lcm(*(si * sj for si in scales[::m] for sj in S))
    structure = [[[v * (den // (scales[i * m] * S[j])) for v in x] for j, x in enumerate(line)]
                 for i, line in enumerate(structure)]
    for i in range(c):
        for j in range(i + 1, c):
            if structure[i][j] != structure[j][i]:
                raise CenterNotClosed("center is not commutative")
    if rational:
        rows = tuple(tuple(tuple((k, v) for k, v in enumerate(x) if v) for x in line)
                     for line in structure)
    else:
        rows, den = _kappa_multiples(field, structure), den * field.tensor().den ** 2
    return CenterAlgebra(
        field=field,
        dim_space=n,
        tensor=_integer_tensor(rows, den),
        unit=(unit, 1),
        matrices=tuple(zip(matrices, scales)),
    )


def _kappa_multiples(field, structure):
    """The constants of the basis kappa_l b_i (index i m + l) from the flat
    coordinates structure[i][j] of b_i b_j = sum_k x_k b_k over K:
    (kappa_l b_i)(kappa_l' b_j) has those of kappa_l kappa_l' x_k, over
    K.tensor().den^2 more."""
    kt, m = field.tensor(), field.absolute_degree
    units = [[int(p == l) for p in range(m)] for l in range(m)]

    @functools.lru_cache(maxsize=None)
    def multiple(x, l, l2):
        return [(b, v) for b, v in enumerate(kt.mul(kt.mul(list(x), units[l]), units[l2])) if v]

    return tuple(
        tuple(
            tuple((k + b, v) for k in range(0, len(x), m) if any(x[k:k + m])
                  for b, v in multiple(tuple(x[k:k + m]), l, l2))
            for x in line for l2 in range(m)
        )
        for line in structure for l in range(m)
    )


# ---------------------------------------------------------------------------
# univariate polynomials for the splitting: primitive integer coefficient
# lists (lowest degree first, positive leading coefficient)


def _primitive(f):
    """f over its content, with a positive leading coefficient."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    if not f:
        return f
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return f if g == 1 else [c // g for c in f]


def _int_derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _int_sub(f, g):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return out


def _int_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _pseudo_divmod(f, g):
    """(q, r, m) with m f = q g + r, deg r < deg g and m = lc(g)^k for the k
    division steps taken."""
    r = list(f)
    lc = g[-1]
    q = [0] * max(len(r) - len(g) + 1, 0)
    m = 1
    while r and len(r) >= len(g):
        k = len(r) - len(g)
        c = r[-1]
        if lc != 1:
            r = [lc * v for v in r]
            q = [lc * v for v in q]
            m *= lc
        q[k] += c
        for i, v in enumerate(g):
            r[k + i] -= c * v
        while r and not r[-1]:
            r.pop()
    return q, r, m


def _int_quo(f, g):
    """f / g when g divides f; for primitive g the quotient is integral (Gauss)."""
    q = [0] * (len(f) - len(g) + 1)
    r = list(f)
    lc = g[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(g) - 1] // lc
        q[k] = c
        if c:
            for i, v in enumerate(g):
                r[k + i] -= c * v
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _int_gcd(f, g):
    """The primitive gcd, by the primitive pseudo-remainder sequence."""
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        _, r, _ = _pseudo_divmod(a, b)
        a, b = b, _primitive(r)
    return a


# the divisor test of `_rational_roots` runs when both end coefficients are
# at most this large in absolute value, and then finds every rational root
_DIVISOR_BOUND = 10**8


def _rational_roots(ints) -> List[Fraction]:
    """Rational roots of a squarefree integer polynomial, by the bounded
    divisor test: p/q in lowest terms is a root when sum c_i p^i q^(deg-i),
    evaluated by a homogeneous Horner rule in ints, is zero."""
    roots = []
    # peel the root 0 first
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return roots
    a0, lead = abs(ints[0]), abs(ints[-1])
    if a0 > _DIVISOR_BOUND or lead > _DIVISOR_BOUND:
        return roots
    leads = _divisors(lead)
    for p in _divisors(a0):
        for q in leads:
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                acc, qk = ints[-1], 1
                for c in reversed(ints[:-1]):
                    qk *= q
                    acc = acc * num + c * qk
                if acc == 0:
                    roots.append(Fraction(num, q))
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _crt_idempotents(pieces):
    """(E, den) per piece p: E / den is 1 mod p and 0 mod the other pieces,
    and of lower degree than their product sf.  Along the pseudo-remainder
    sequence of p and h = sf / p, each remainder r keeps a cofactor s with
    s h = r mod p, and deg s < deg p; at the constant remainder c, E = s h
    and den = c."""
    sf = pieces[0]
    for p in pieces[1:]:
        sf = _int_mul(sf, p)
    out = []
    for p in pieces:
        h = _int_quo(sf, p)
        r0, s0, r1, s1 = p, [], h, [1]
        while len(r1) > 1:
            q, r, m = _pseudo_divmod(r0, r1)
            s = _int_sub([m * v for v in s0], _int_mul(q, s1))
            g = math.gcd(*r, *s)
            r0, s0, r1, s1 = r1, s1, [v // g for v in r], [v // g for v in s]
        if not r1:
            raise RuntimeError("pieces were not coprime")
        e = _int_mul(s1, h)
        den = r1[0]
        g = math.gcd(den, *e)
        if den < 0:
            g = -g
        out.append(([v // g for v in e], den // g))
    return out


def _divisor_irreducible(f) -> bool:
    """Whether the divisor test proves the primitive squarefree f
    irreducible over Q: at degree at most 3, f is irreducible when it has no
    rational root, which the test decides when it runs in full."""
    return (len(f) <= 4 and abs(f[0]) <= _DIVISOR_BOUND and abs(f[-1]) <= _DIVISOR_BOUND
            and not _rational_roots(f))


def _factor(f):
    """Irreducible factors over Q of a primitive squarefree f: the
    certification step.  sympy factors f when the divisor test does not
    prove it irreducible."""
    if _divisor_irreducible(f):
        return [f]
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Integer(c) * t**i for i, c in enumerate(f))
    _, factors = sympy.Poly(expr, t, domain="QQ").factor_list()
    pieces = []
    for fac, _mult in factors:
        cs = [Fraction(str(c)) for c in fac.all_coeffs()[::-1]]
        pieces.append(_primitive(integral_coordinates(cs)[0]))
    return pieces


def _yun_squarefree_groups(f):
    """Yun's algorithm: f = prod g_i^i with the g_i squarefree and pairwise
    coprime.  Returns the nonconstant g_i (multiplicity dropped).  The
    quotients stay integral: each divisor is primitive (Gauss's lemma)."""
    f = _primitive(f)
    out = []
    df = _int_derivative(f)
    a = _int_gcd(f, df)
    if len(a) <= 1:
        return [f]
    b = _int_quo(f, a)
    c = _int_quo(df, a)
    d = _int_sub(c, _int_derivative(b))
    while len(b) > 1:
        g = _int_gcd(b, d)
        if len(g) > 1:
            out.append(g)
        b = _int_quo(b, g)
        c = _int_quo(d, g)
        d = _int_sub(c, _int_derivative(b))
    return out


def _coprime_pieces(mu):
    """Pairwise coprime factors of the squarefree part of mu, found by gcds:
    Yun groups first, then rational linear factors peeled from each group."""
    pieces = []
    for g in _yun_squarefree_groups(mu):
        rest = g
        for r in _rational_roots(g):
            lin = [-r.numerator, r.denominator]
            rest = _int_quo(rest, lin)
            pieces.append(lin)
        if len(rest) > 1:
            pieces.append(rest)
    return pieces


def _squarefree_part(f):
    return _primitive(_int_quo(f, _int_gcd(f, _int_derivative(f))))


# ---------------------------------------------------------------------------
# idempotent machinery, on coordinate vectors (a, den) in the basis of the
# center over Q


def _lincomb(terms):
    """sum of k * x over (k, x) in terms, for ints k and vectors x."""
    den = math.lcm(*(d for _, (_, d) in terms))
    out = [0] * len(terms[0][1][0])
    for k, (a, d) in terms:
        f = k * (den // d)
        for i, x in enumerate(a):
            if x:
                out[i] += f * x
    return _reduced(out, den)


def _unit_vectors(m: int):
    return [([int(k == i) for k in range(m)], 1) for i in range(m)]


class _Block:
    """A unital commutative subalgebra e*C of a commutative Q-algebra C,
    given by its integer structure tensor: the unit e and a basis, as
    vectors in the basis of C.  C contains a field K of Q-dimension
    `field_degree`, so e*C contains its copy K*e."""

    def __init__(self, tensor: StructureTensor, unit, basis, field_degree: int):
        self.tensor = tensor
        self.unit = unit
        self.basis = basis
        self.field_degree = field_degree

    @property
    def dim(self) -> int:
        return len(self.basis)

    def mul(self, x, y):
        return _reduced(self.tensor.mul(x[0], y[0]), x[1] * y[1] * self.tensor.den)

    def minpoly(self, z):
        """Minimal polynomial of z acting inside this block (unit = 1).

        With z = Z / dz, e = U / de and w = dz * den, the vectors
        q_k = de w^k e z^k are integral: q_0 = U and q_(k+1) = T(q_k, Z).
        Each q_k is reduced against the earlier ones (an echelon form that
        records the combination of the q_i behind each row); the first that
        reduces to zero gives sum c_i q_i = 0, so mu(t) is sum c_i w^i t^i."""
        t = self.tensor
        Z, dz = z
        w = dz * t.den
        q = self.unit[0]
        echelon = []  # (pivot column, row, combination); zero at earlier pivots
        for k in range(self.dim + 2):
            row = {i: v for i, v in enumerate(q) if v}
            comb = {k: 1}
            for p, erow, ecomb in echelon:
                f = row.get(p)
                if f:
                    a = erow[p]
                    g = math.gcd(a, f)
                    a, f = a // g, f // g
                    row = _sub_scaled(a, row, f, erow)
                    comb = _sub_scaled(a, comb, f, ecomb)
            if not row:
                return _primitive([comb.get(i, 0) * w**i for i in range(k + 1)])
            p = min(row)
            g = math.gcd(*row.values(), *comb.values())
            if g != 1:
                row = {i: v // g for i, v in row.items()}
                comb = {i: v // g for i, v in comb.items()}
            echelon.append((p, row, comb))
            q = t.mul(q, Z)
        raise RuntimeError("minimal polynomial search exceeded the block dimension")

    def poly_eval(self, poly, z):
        """The polynomial coeffs / den, poly = (coeffs, den), at z by Horner's
        rule, with the block's unit standing in for 1.  With w = dz * den_T
        the partial value after coefficient k is A_k / (de w^(deg - k)),
        A_deg = c_deg U and A_k = T(A_(k+1), Z) + c_k w^(deg - k) U."""
        coeffs, cden = poly
        t = self.tensor
        U, de = self.unit
        Z, dz = z
        w = dz * t.den
        deg = len(coeffs) - 1
        acc = [0] * len(U)
        for k in range(deg, -1, -1):
            if k < deg:
                acc = t.mul(acc, Z)
            c = coeffs[k]
            if c:
                f = c * w ** (deg - k)
                acc = [x + f * u if u else x for x, u in zip(acc, U)]
        return _reduced(acc, de * w**deg * cden)

    def elements(self):
        """Deterministic candidate sequence: basis, then pairwise sums, then
        sums with small integer weights.  `_try_split` stops at the first
        candidate that splits the block, or that certifies it a field by a
        minimal polynomial irreducible of the block's degree (its first
        full-degree generator)."""
        for b in self.basis:
            yield b
        m = len(self.basis)
        for i in range(m):
            for j in range(i + 1, m):
                yield _lincomb([(1, self.basis[i]), (1, self.basis[j])])
        for w in range(2, 6):
            for i in range(m):
                for j in range(m):
                    if i != j:
                        yield _lincomb([(1, self.basis[i]), (w, self.basis[j])])

    def nilradical_rank(self) -> int:
        """Rank of the regular trace form t(xy) on the block; its kernel is
        the nilradical.  Multiplication by x in eC is zero on (1 - e)C, so
        its trace on eC is its trace on C."""
        return self.tensor.trace_form_rank([b[0] for b in self.basis])


def _sub_scaled(a, x: dict, f, y: dict) -> dict:
    """a x - f y for sparse rows, without zeros."""
    out = {k: a * v for k, v in x.items()}
    for k, v in y.items():
        s = out[k] - f * v if k in out else -(f * v)
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _lift_idempotent(block: _Block, e):
    """Newton iteration e <- 3e^2 - 2e^3; exact once it stabilizes."""
    for _ in range(64):
        e2 = block.mul(e, e)
        if e2 == e:
            return e
        e3 = block.mul(e2, e)
        e = _lincomb([(3, e2), (-2, e3)])
    raise RuntimeError("idempotent lifting failed to stabilize")


def _split_with_pieces(block: _Block, z, pieces):
    """CRT idempotents for pairwise coprime pieces of the squarefree part of
    the minimal polynomial of z, lifted through the nilradical."""
    return [
        _lift_idempotent(block, block.poly_eval(poly, z))
        for poly in _crt_idempotents(pieces)
    ]


def _one_field(minpolys, rank: int) -> bool:
    """Whether a semisimple quotient of rank `rank`, a product of fields L_j,
    is one field: z whose squarefree part is irreducible of degree d has
    that minimal polynomial in each L_j, so d divides every [L_j : Q], and
    such degrees of lcm `rank` leave one field."""
    sfs = (_squarefree_part(mu) for _, mu in minpolys)
    return math.lcm(1, *(len(sf) - 1 for sf in sfs if _divisor_irreducible(sf))) == rank


def _try_split(block: _Block, record: Counter):
    """One round: return orthogonal idempotents refining the block, or None
    when the block is certified primitive.

    A candidate z splits the block when its minimal polynomial mu has two
    or more coprime pieces.  It certifies the block a field when mu has the
    block's degree, is squarefree with no rational root, and the divisor
    test proves it irreducible: 1, z, ..., z^(dim - 1) are then independent,
    so Q[z] is the whole block, and Q[z] = Q[t]/(mu) is a field (Friedl &
    Ronyai, STOC 1985).  When the candidates run out, the rank of the trace
    form certifies the block through its semisimple quotient: of the
    Q-dimension of K it is K*e, a field.  `record` counts the round, the
    minimal polynomials taken and a sympy factoring."""
    record["rounds"] += 1
    minpolys = []
    for z in block.elements():
        mu = block.minpoly(z)
        record["minimal_polynomials"] += 1
        minpolys.append((z, mu))
        pieces = _coprime_pieces(mu)
        if len(pieces) >= 2:
            return _split_with_pieces(block, z, pieces)
        if len(mu) - 1 == block.dim and pieces == [mu] and _divisor_irreducible(mu):
            return None

    # gcd pipeline found nothing; certify through the semisimple quotient
    ss_rank = block.nilradical_rank()
    if ss_rank == block.field_degree:
        return None
    for z, mu in minpolys:
        sf = _squarefree_part(mu)
        if len(sf) - 1 == ss_rank:
            # z generates the semisimple quotient; factor its minimal
            # polynomial unless the divisor test or the degrees certify it
            if _divisor_irreducible(sf) or _one_field(minpolys, ss_rank):
                return None
            record["sympy_factorings"] += 1
            pieces = _factor(sf)
            if len(pieces) >= 2:
                return _split_with_pieces(block, z, pieces)
            return None
    raise RuntimeError(
        "no generator of the semisimple quotient appeared in the element sequence"
    )


@functools.lru_cache(maxsize=None)
def _is_field(field) -> bool:
    """Whether the coefficient field is a field, not a product of fields:
    the unit of its integer tensor, over Q, is primitive."""
    if isinstance(field, RationalField):
        return True
    t = field.tensor()
    unit = integral_coordinates(field.flat(field.one))
    return _try_split(_Block(t, unit, _unit_vectors(t.dim), 1), Counter()) is None


def primitive_idempotents(center: CenterAlgebra, record: Optional[Counter] = None) -> list:
    """The primitive idempotents of the center, split on coordinate vectors
    of the center as an algebra over Q, in a canonical order.  Each comes
    as (matrix, basis): the n x n matrix, and the reduced row echelon form
    of its columns as int columns (`_column_basis`), computed from the
    integer matrix.  Over a product of fields, whose components would not
    be free modules, it raises ValueError.

    The center contains K, of Q-dimension m, so an idempotent e whose block
    eC has Q-dimension m is primitive: eC is K*e, a field.  That dimension
    is read off before the block is made: multiplication by e is a
    projection onto eC, so dim eC = tr L_e = sum_i e_i tr L_(b_i), and the
    traces are the tensor's diagonal constants (`StructureTensor.traces`).
    Any other block is searched by `_try_split`, which certifies a field
    block at its first full-degree generator.  `record`, when given, counts
    the splitting rounds, the minimal polynomials taken and the sympy
    factorings."""
    field = center.field
    if not _is_field(field):
        raise ValueError("decomposition needs a field, not a product of fields: %r" % (field,))
    record = Counter() if record is None else record
    m = field.absolute_degree
    t, unit = center.tensor, center.unit
    traces = t.traces()

    def make_block(e) -> _Block:
        # the rows e * b_k, straight from the tensor's rows; a reduced row
        # comes back as the primitive row over its pivot
        E = [(i, c) for i, c in enumerate(e[0]) if c]
        rows = [t.combine((c, t.rows[i][k]) for i, c in E) for k in range(t.dim)]
        red, pivots = linalg.rref(QQ, rows)
        return _Block(t, e, [([row.get(i, 0) for i in range(t.dim)], row[c])
                             for row, c in zip(red, pivots)], m)

    final = []
    queue = [unit]
    while queue:
        e = queue.pop(0)
        # tr L_e = sum_i (E_i / de) (traces_i / den) is m
        if sum(c * x for c, x in zip(e[0], traces) if c) == m * e[1] * t.den:
            final.append(e)
            continue
        split = _try_split(make_block(e), record)
        if split is None:
            final.append(e)
        else:
            for piece in split:
                if not any(piece[0]):
                    raise RuntimeError("zero idempotent produced by a split")
            queue.extend(split)

    n = center.dim_space
    mats = []
    for ek, de in final:
        scale = math.lcm(*(s for c, (_, s) in zip(ek, center.matrices) if c))
        acc = [{} for _ in range(n)]
        for c, (rows, s) in zip(ek, center.matrices):
            if c:
                f = c * (scale // s)
                for a, row in enumerate(rows):
                    line = acc[a]
                    for i, x in row.items():
                        line[i] = line[i] + f * x if i in line else f * x
        mats.append((tuple(_entries(field, line, de * scale, n) for line in acc), acc))

    mats.sort(key=functools.cmp_to_key(lambda a, b: _matrix_order(a[0], b[0])))
    return [(m, _column_basis(field, acc, n)) for m, acc in mats]


def _column_basis(field, rows, n: int) -> list:
    """The nonzero rows of the reduced row echelon form of the columns of
    an n x n matrix, as int columns (nums, den) (`linalg.int_rref`): the
    dict row nums of the nonzero numerators, {i: int} over Q and {i: flat
    int vector} over an etale field, over the positive int den.  The matrix
    is given as dict rows of int numerators over one denominator, which the
    column space does not depend on, entry (a, i) at columns i m, ...,
    i m + m - 1 of row a; a column goes to the elimination as a dict row of
    ints over Q and of flat int vectors over an etale field."""
    m = field.absolute_degree
    rational = isinstance(field, RationalField)
    cols = [{} for _ in range(n)]
    for a, row in enumerate(rows):
        for k, v in row.items():
            if v:
                if rational:
                    cols[k][a] = v
                else:
                    cols[k // m].setdefault(a, [0] * m)[k % m] = v
    return linalg.int_rref(field, cols)[0]


def _column_elements(field, column, n: int) -> tuple:
    """The n field elements of an int column of `_column_basis`."""
    nums, den = column
    if not isinstance(field, RationalField):
        m = field.absolute_degree
        nums = {i * m + l: v for i, vec in nums.items() for l, v in enumerate(vec) if v}
    return _entries(field, nums, den, n)


def _matrix_order(a: Matrix, b: Matrix) -> int:
    """Lexicographic order of the matrices' entries by `_element_sort_key`,
    which is computed only at the first entry where they differ."""
    for ra, rb in zip(a, b):
        if ra != rb:
            for x, y in zip(ra, rb):
                if x != y:
                    return -1 if _element_sort_key(x) < _element_sort_key(y) else 1
    return 0


def _element_sort_key(x: FieldElement):
    out = []
    for c in x.coeffs:
        if isinstance(c, FieldElement):
            out.append(_element_sort_key(c))
        else:
            out.append((c.numerator, c.denominator))
    return tuple(out)


# ---------------------------------------------------------------------------
# public entry points


def _polarization(phi: HomogeneousForm) -> SymmetricTensor:
    """The polarization of phi, after refusing a degree below 3 and a
    nonzero radical."""
    if phi.degree < 3:
        raise DegreeTooSmall("degree must be at least 3, got %d" % phi.degree)
    theta = polarize(phi)
    if linalg.rank(phi.field, radical_equations(theta)) < phi.nvars:
        raise DegenerateInput("form has a nonzero radical")
    return theta


def _nilradical_rank(center: CenterAlgebra) -> int:
    """The rank over Q of the trace form of the center as an algebra over
    Q, whose kernel is the nilradical: the Q-dimension of the center modulo
    its nilradical."""
    t = center.tensor
    return _Block(t, center.unit, _unit_vectors(t.dim), 1).nilradical_rank()


def krull_schmidt_decompose(phi: HomogeneousForm) -> Decomposition:
    """The unique unordered orthogonal decomposition into indecomposables.

    Components are returned in a canonical order (dimension, then body terms),
    with the idempotents that cut them and the assembled change of basis P,
    which must be invertible.  One composition R = phi(P' y), P' the
    component bases in idempotent order, gives every component: setting the
    other blocks' variables to zero leaves phi(P_e y_e), so component e's
    form is the keys of R in block e's variables, shifted down.  The
    reconstruction identity phi(P' y) = sum of component forms holds exactly
    when no term of R mixes two blocks, which is checked.  With one
    component the nilradical rank of the center is kept for
    `absolutely_indecomposable`.
    """
    theta = _polarization(phi)
    field, n, d = phi.field, phi.nvars, phi.degree
    center = center_algebra(theta)
    record = Counter()
    idems = primitive_idempotents(center, record)

    # P' is invertible with its transpose, whose rows are the int columns
    columns = [col for _, cols in idems for col in cols]
    if len(columns) != n or not linalg.is_invertible(field, [nums for nums, _ in columns]):
        raise RuntimeError("component bases failed to assemble to a change of basis")
    # Variable i of R's exponent part x sits at bit (n - 1 - i) W, under the
    # total degree, so block k, variables s, ..., s + r - 1, is the r fields
    # from bit (n - s - r) W: shifted down, the component's, under degree d.
    R = substitute_vectors(phi, columns).body
    G = field.generator_bits
    owner, shifts = [], []
    for k, (_, cols) in enumerate(idems):
        shifts.append(((n - len(owner) - len(cols)) * W, (1 << len(cols) * W) - 1,
                       d << len(cols) * W))
        owner.extend([k] * len(cols))
    top, parts = d << n * W, [{} for _ in idems]
    for key, c in R._nums.items():
        x = key >> G
        k = owner[n - 1 - ((x ^ top).bit_length() - 1) // W]
        low, mask, deg = shifts[k]
        part = (x >> low) & mask
        if x != top | part << low:
            raise RuntimeError("reconstruction identity failed")
        parts[k][(deg | part) << G | (key ^ x << G)] = c
    comps = [
        (e, Component(dim=len(cols), basis_columns=tuple(
            _column_elements(field, col, n) for col in cols), form=HomogeneousForm(
                field, d, len(cols), Polynomial._from_nums(field, len(cols), part, R._den))))
        for (e, cols), part in zip(idems, parts)
    ]
    comps.sort(key=lambda item: (item[1].dim, tuple(
        (x, _element_sort_key(c)) for x, c in item[1].form.body.sorted_terms())))
    columns = [col for _, comp in comps for col in comp.basis_columns]
    return Decomposition(
        components=tuple(comp for _, comp in comps),
        change_of_basis=LinearMap(field, list(zip(*columns))),
        idempotents=tuple(e for e, _ in comps),
        center_dim=center.dim,
        nilradical_rank=_nilradical_rank(center) if len(comps) == 1 else None,
        splitting_rounds=record["rounds"],
        minimal_polynomials=record["minimal_polynomials"],
        sympy_factored=record["sympy_factorings"] > 0,
    )


def is_absolutely_indecomposable(phi: HomogeneousForm) -> bool:
    """True when the center modulo its nilradical is one-dimensional, i.e. the
    form stays indecomposable over every extension field."""
    theta = _polarization(phi)
    return _nilradical_rank(center_algebra(theta)) == phi.field.absolute_degree
