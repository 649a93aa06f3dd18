"""Orthogonal decomposition of nondegenerate d-linear spaces, d >= 3.

The endomorphisms that slide between slots of the polarization form a
commutative matrix algebra C, the center; its primitive idempotents cut the
space into the unique unordered orthogonal decomposition.  `center_algebra`
finds a basis of C with one elimination, reads the coordinates of each
product of basis matrices off that basis, and keeps them as structure
constants.  The splitting then works in the regular representation of C, as
in Friedl & Ronyai (STOC 1985): an element is its coordinate vector,
multiplied through the structure constants, and n x n matrices are built
only for the final idempotents.  Idempotents are found from minimal
polynomials of a deterministic element sequence, split by gcd-based coprime
factorization and rational roots, lifted through the nilradical, and
certified (or refined) by univariate factorization over Q when the gcd
pipeline stalls; the rank of the trace form of C bounds the semisimple part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import linalg
from .coeffield import (
    FieldElement,
    QQ,
    poly_add,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_scale,
    poly_trim,
    poly_xgcd,
)
from .forms import (
    HomogeneousForm,
    LinearMap,
    SymmetricTensor,
    orthogonal_sum,
    polarize,
    radical,
    substitute_vectors,
)


class DegenerateInput(ValueError):
    """Decomposition requires a nondegenerate form."""


class DegreeTooSmall(ValueError):
    """Quadratic (and linear) forms have no unique decomposition of this kind."""


class CenterNotClosed(RuntimeError):
    """The slot-sliding solution space failed to be a commutative algebra."""


Matrix = Tuple[Tuple[FieldElement, ...], ...]


@dataclass(frozen=True)
class CenterAlgebra:
    field: object
    dim_space: int  # n: the matrices are n x n
    basis: Tuple[Matrix, ...]
    structure: Tuple[Tuple[Tuple[FieldElement, ...], ...], ...]  # basis[i]*basis[j] coords
    unit_coords: Tuple[FieldElement, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


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


# ---------------------------------------------------------------------------
# the center algebra


def center_algebra(theta: SymmetricTensor) -> CenterAlgebra:
    """Solve theta(f v1, v2, ...) = theta(v1, f v2, ...) for matrices f.

    Unknown f enters through its action on basis vectors; one linear equation
    per variable pair i < j and per sorted (d-2)-tuple of spectator slots.
    """
    field = theta.field
    n = theta.dim
    d = theta.degree
    if d < 2:
        raise DegreeTooSmall("the slot-sliding system needs degree >= 2")

    # Column a * n + i holds f[a][i].  Equation (rest, i, j) has the
    # coefficient theta(rest, a, j) at f[a][i] and -theta(rest, a, i) at
    # f[a][j], so each nonzero theta(rest, a, x) lands in the equations whose
    # pair holds x.  Those two columns never coincide within one equation.
    eqs = {}
    for idx, val in theta.entries.items():
        neg = -val
        for p in range(d):
            for q in range(d):
                if p == q:
                    continue
                rest = tuple(v for k, v in enumerate(idx) if k != p and k != q)
                a, x = idx[p], idx[q]
                for i in range(x):
                    eqs.setdefault((rest, i, x), {})[a * n + i] = val
                for j in range(x + 1, n):
                    eqs.setdefault((rest, x, j), {})[a * n + j] = neg
    rows = [eqs[key] for key in sorted(eqs)]

    vecs = [
        {c: x for c, x in enumerate(v) if not x.is_zero()}
        for v in linalg.nullspace(field, rows, n * n)
    ]
    # Each nullspace vector is 1 at its own free column, 0 at the others, and
    # zero past its free column, so a matrix in the span has its coordinates
    # at the free columns.
    free = [max(v) for v in vecs]
    sparse = []  # the basis matrices as dict rows
    for v in vecs:
        mat = [{} for _ in range(n)]
        for c, x in v.items():
            mat[c // n][c % n] = x
        sparse.append(mat)

    def coords(mat):
        """Coordinates of a matrix given as dict rows, or None outside the span."""
        rest = {a * n + i: x for a, row in enumerate(mat) for i, x in row.items()}
        out = tuple(rest.get(c, field.zero) for c in free)
        for ck, v in zip(out, vecs):
            if not ck.is_zero():
                for c, x in v.items():
                    rest[c] = rest[c] - ck * x if c in rest else -(ck * x)
        return out if all(x.is_zero() for x in rest.values()) else None

    unit = coords([{a: field.one} for a in range(n)])
    if unit is None:
        raise CenterNotClosed("identity matrix missing from the sliding solution space")

    structure = []
    for bi in sparse:
        row = []
        for bj in sparse:
            c = coords(linalg.mat_mul(field, bi, bj))
            if c is None:
                raise CenterNotClosed("center is not closed under multiplication")
            row.append(c)
        structure.append(tuple(row))
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if structure[i][j] != structure[j][i]:
                raise CenterNotClosed("center is not commutative")

    return CenterAlgebra(
        field=field,
        dim_space=n,
        basis=tuple(
            tuple(tuple(row.get(i, field.zero) for i in range(n)) for row in mat)
            for mat in sparse
        ),
        structure=tuple(structure),
        unit_coords=unit,
    )


# ---------------------------------------------------------------------------
# idempotent machinery, on coordinate vectors in the center's basis


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _scale(c: FieldElement, x):
    return tuple(c * a for a in x)


def _unit_vectors(field, m: int):
    return [tuple(field.one if k == i else field.zero for k in range(m)) for i in range(m)]


def _yun_squarefree_groups(field, f):
    """Yun's algorithm: f = prod g_i^i with the g_i squarefree and pairwise
    coprime.  Returns the nonconstant g_i (multiplicity dropped)."""
    f = poly_trim(field, list(f))
    out = []
    df = poly_derivative(field, f)
    a = poly_gcd(field, f, df)
    if len(a) <= 1:
        return [poly_scale(field, f, f[-1].inv())]
    b, _ = poly_divmod(field, f, a)
    c, _ = poly_divmod(field, df, a)
    d = poly_add(field, c, poly_scale(field, poly_derivative(field, b), -field.one))
    while len(b) > 1:
        g = poly_gcd(field, b, d)
        if len(g) > 1:
            out.append(g)
        b, _ = poly_divmod(field, b, g)
        c, _ = poly_divmod(field, d, g)
        d = poly_add(field, c, poly_scale(field, poly_derivative(field, b), -field.one))
    return out


def _rational_roots(f) -> List[Fraction]:
    """Rational roots of a squarefree f, by the bounded divisor test; none
    unless every coefficient is rational."""
    try:
        fr = [c.as_rational() for c in f]
    except ValueError:
        return []
    den = math.lcm(*(c.denominator for c in fr))
    ints = [int(c * den) for c in fr]
    roots = []
    # peel the root 0 first
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return roots
    a0, lead = abs(ints[0]), abs(ints[-1])
    if a0 > 10**8 or lead > 10**8:
        return roots
    for p in _divisors(a0):
        for q in _divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0 and cand not in roots:
                    roots.append(cand)
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


def _coprime_pieces(field, mu):
    """Pairwise coprime factors of the squarefree part of mu, found by gcds:
    Yun groups first, then rational linear factors peeled from each group."""
    pieces = []
    for g in _yun_squarefree_groups(field, mu):
        rest = g
        for r in _rational_roots(g):
            lin = [field.from_rational(-r), field.one]
            rest, _ = poly_divmod(field, rest, lin)
            pieces.append(lin)
        if len(rest) > 1:
            pieces.append(rest)
    return pieces


class _Block:
    """A unital commutative subalgebra e*C of the center C: its unit e and a
    basis, as coordinate vectors in the basis of C."""

    def __init__(self, center: CenterAlgebra, unit, basis):
        self.field = center.field
        self.structure = center.structure
        self.unit = unit
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def mul(self, x, y):
        return linalg.structure_product(self.field, self.structure, x, y)

    def minpoly(self, z):
        """Minimal polynomial of z acting inside this block (unit = 1)."""
        field = self.field
        powers = [self.unit]  # the powers of z found independent so far
        while True:
            cur = self.mul(powers[-1], z)
            rows = [{k: p[i] for k, p in enumerate(powers) if not p[i].is_zero()}
                    for i in range(len(cur))]
            rep = linalg.solve(field, rows, cur, len(powers))
            if rep is not None:
                coeffs = [-c for c in rep] + [field.one]
                return poly_trim(field, coeffs)
            powers.append(cur)
            if len(powers) > self.dim + 1:
                raise RuntimeError("minimal polynomial search exceeded the block dimension")

    def poly_eval(self, coeffs, z):
        """A univariate polynomial (low-first coefficient list) at z, by
        Horner's rule, with the block's unit standing in for 1."""
        out = tuple(self.field.zero for _ in z)
        for c in reversed(list(coeffs)):
            out = self.mul(out, z)
            if not c.is_zero():
                out = _add(out, _scale(c, self.unit))
        return out

    def elements(self):
        """Deterministic candidate sequence: basis, then pairwise sums, then
        sums with small integer weights."""
        for b in self.basis:
            yield b
        m = len(self.basis)
        for i in range(m):
            for j in range(i + 1, m):
                yield _add(self.basis[i], self.basis[j])
        for w in range(2, 6):
            c = self.field.from_rational(w)
            for i in range(m):
                for j in range(m):
                    if i != j:
                        yield _add(self.basis[i], _scale(c, self.basis[j]))

    def nilradical_rank(self) -> int:
        """Rank of the regular trace form t(xy) on the block; its kernel is
        the nilradical.  Multiplication by x in eC is zero on (1 - e)C, so
        its trace on eC is its trace on C, t(x) = sum_i x_i t_i with
        t_i = sum_k structure[i][k][k]."""
        field = self.field
        t = [sum((plane[k][k] for k in range(len(plane))), field.zero)
             for plane in self.structure]

        def trace(x):
            return sum((a * b for a, b in zip(t, x) if not b.is_zero()), field.zero)

        m = self.dim
        gram = [[field.zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                gram[i][j] = gram[j][i] = trace(self.mul(self.basis[i], self.basis[j]))
        return linalg.rank(field, gram)


def _lift_idempotent(block: _Block, e):
    """Newton iteration e <- 3e^2 - 2e^3; exact once it stabilizes."""
    field = block.field
    three = field.from_rational(3)
    minus_two = field.from_rational(-2)
    for _ in range(64):
        e2 = block.mul(e, e)
        if e2 == e:
            return e
        e3 = block.mul(e2, e)
        e = _add(_scale(three, e2), _scale(minus_two, e3))
    raise RuntimeError("idempotent lifting failed to stabilize")


def _split_with_pieces(block: _Block, z, pieces):
    """CRT idempotents for pairwise coprime pieces of the squarefree part of
    the minimal polynomial of z, lifted through the nilradical."""
    field = block.field
    sf = pieces[0]
    for p in pieces[1:]:
        sf = poly_mul(field, sf, p)
    out = []
    for piece in pieces:
        h, _ = poly_divmod(field, sf, piece)
        g, u, v = poly_xgcd(field, piece, h)
        if len(g) != 1:
            raise RuntimeError("pieces were not coprime")
        scale = g[0].inv()
        vh = poly_mul(field, poly_scale(field, v, scale), h)
        _, vh = poly_divmod(field, vh, sf)
        out.append(_lift_idempotent(block, block.poly_eval(vh, z)))
    return out


def _factor_pieces_sympy(field, mu):
    """Irreducible factors over Q as coefficient lists; the certification step."""
    if field != QQ:
        raise NotImplementedError(
            "primitivity certification is implemented over Q only"
        )
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.coeffs[0]) * t**i for i, c in enumerate(mu))
    _, factors = sympy.Poly(expr, t, domain="QQ").factor_list()
    pieces = []
    for fac, _mult in factors:
        cs = fac.all_coeffs()[::-1]
        lead = Fraction(str(cs[-1]))
        piece = [field.from_rational(Fraction(str(c)) / lead) for c in cs]
        pieces.append(piece)
    return pieces


def _try_split(block: _Block):
    """One round: return orthogonal idempotents refining the block, or None
    when the block is certified primitive."""
    field = block.field
    if block.dim == 1:
        return None

    minpolys = []
    for z in block.elements():
        mu = block.minpoly(z)
        minpolys.append((z, mu))
        pieces = _coprime_pieces(field, mu)
        if len(pieces) >= 2:
            return _split_with_pieces(block, z, pieces)

    # gcd pipeline found nothing; certify through the semisimple quotient
    ss_rank = block.nilradical_rank()
    if ss_rank == 1:
        return None
    for z, mu in minpolys:
        sf = _squarefree_part(field, mu)
        if len(sf) - 1 == ss_rank:
            # z generates the semisimple quotient; factor its minimal polynomial
            pieces = _factor_pieces_sympy(field, sf)
            if len(pieces) >= 2:
                return _split_with_pieces(block, z, pieces)
            return None
    raise RuntimeError(
        "no generator of the semisimple quotient appeared in the element sequence"
    )


def _squarefree_part(field, f):
    g = poly_gcd(field, f, poly_derivative(field, f))
    out, _ = poly_divmod(field, f, g)
    return poly_scale(field, out, out[-1].inv())


def primitive_idempotents(center: CenterAlgebra) -> List[Matrix]:
    """The primitive idempotents of the center, split on coordinate vectors
    in its basis and returned as n x n matrices in a canonical order."""
    field = center.field
    units = _unit_vectors(field, center.dim)

    def make_block(e) -> _Block:
        rows = [linalg.structure_product(field, center.structure, e, b) for b in units]
        red, pivots = linalg.rref(field, rows)
        return _Block(center, e, [tuple(red[i]) for i in range(len(pivots))])

    final = []
    queue = [center.unit_coords]
    while queue:
        e = queue.pop(0)
        split = _try_split(make_block(e))
        if split is None:
            final.append(e)
        else:
            for piece in split:
                if all(x.is_zero() for x in piece):
                    raise RuntimeError("zero idempotent produced by a split")
            queue.extend(split)

    n = center.dim_space
    entries = [
        [(a, i, x) for a, row in enumerate(b) for i, x in enumerate(row) if not x.is_zero()]
        for b in center.basis
    ]
    mats = []
    for e in final:
        mat = [[field.zero] * n for _ in range(n)]
        for ek, nonzero in zip(e, entries):
            if not ek.is_zero():
                for a, i, x in nonzero:
                    mat[a][i] = mat[a][i] + ek * x
        mats.append(tuple(tuple(row) for row in mat))

    def key(mat: Matrix):
        return tuple(
            tuple(_element_sort_key(x) for x in row) for row in mat
        )

    return sorted(mats, key=key)


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


def krull_schmidt_decompose(phi: HomogeneousForm) -> Decomposition:
    """The unique unordered orthogonal decomposition into indecomposables.

    Components are returned in a canonical order (dimension, then body terms),
    with the idempotents that cut them and the assembled change of basis.
    The reconstruction identity phi(P y) = sum of component forms is verified
    symbolically before returning.
    """
    if phi.degree < 3:
        raise DegreeTooSmall("degree must be at least 3, got %d" % phi.degree)
    if radical(phi):
        raise DegenerateInput("form has a nonzero radical")
    field = phi.field
    n = phi.nvars

    theta = polarize(phi)
    center = center_algebra(theta)
    idems = primitive_idempotents(center)

    comps = []
    for e in idems:
        rows = [list(row) for row in zip(*e)]  # columns of e as row vectors
        red, pivots = linalg.rref(field, rows)
        cols = [tuple(red[i]) for i in range(len(pivots))]
        form_e = substitute_vectors(phi, cols)
        comps.append((e, cols, form_e))

    def comp_key(item):
        _, cols, form_e = item
        body_key = tuple(
            (e, _element_sort_key(c)) for e, c in form_e.body.sorted_terms()
        )
        return (len(cols), body_key)

    comps.sort(key=comp_key)

    columns = []
    for _, cols, _ in comps:
        columns.extend(cols)
    p_rows = [[columns[j][i] for j in range(len(columns))] for i in range(n)]
    if len(columns) != n or linalg.determinant(field, p_rows).is_zero():
        raise RuntimeError("component bases failed to assemble to a change of basis")

    total = None
    for _, cols, form_e in comps:
        total = form_e if total is None else orthogonal_sum(total, form_e)
    recon = substitute_vectors(phi, columns)
    if recon.body != total.body:
        raise RuntimeError("reconstruction identity failed")

    return Decomposition(
        components=tuple(
            Component(dim=len(cols), basis_columns=tuple(cols), form=form_e)
            for _, cols, form_e in comps
        ),
        change_of_basis=LinearMap(field, p_rows),
        idempotents=tuple(e for e, _, _ in comps),
    )


def is_absolutely_indecomposable(phi: HomogeneousForm) -> bool:
    """True when the center modulo its nilradical is one-dimensional, i.e. the
    form stays indecomposable over every extension field."""
    if phi.degree < 3:
        raise DegreeTooSmall("degree must be at least 3, got %d" % phi.degree)
    if radical(phi):
        raise DegenerateInput("form has a nonzero radical")
    center = center_algebra(polarize(phi))
    block = _Block(center, center.unit_coords, _unit_vectors(center.field, center.dim))
    return block.nilradical_rank() == 1
