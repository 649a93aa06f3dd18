"""Orthogonal decomposition of nondegenerate d-linear spaces, d >= 3.

The endomorphisms that slide between slots of the polarization form a
commutative matrix algebra; its primitive idempotents cut the space into the
unique unordered orthogonal decomposition.  Idempotents are found from
minimal polynomials of a deterministic element sequence, split by gcd-based
coprime factorization, lifted through the nilradical, and certified (or
refined) by univariate factorization when the gcd pipeline stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

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
# matrix utilities (small and dense; FieldElement entries)


def _mat(field, rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def _mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    return _mat(field, linalg.mat_mul(field, [list(r) for r in a], [list(r) for r in b]))


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(c: FieldElement, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in r) for r in a)


def _mat_eye(field, n: int) -> Matrix:
    return _mat(field, linalg.identity(field, n))


def _flatten(a: Matrix):
    return [x for row in a for x in row]


def _mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


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

    spectators = set()
    for idx in theta.entries:
        for a in range(d):
            for b in range(a + 1, d):
                spectators.add(idx[:a] + idx[a + 1 : b] + idx[b + 1 :])

    rows = []
    for rest in sorted(spectators):
        for i in range(n):
            for j in range(i + 1, n):
                row = [field.zero] * (n * n)
                touched = False
                for a in range(n):
                    cij = theta.entry(rest + (a, j))
                    if not cij.is_zero():
                        row[a * n + i] = row[a * n + i] + cij
                        touched = True
                    cji = theta.entry(rest + (a, i))
                    if not cji.is_zero():
                        row[a * n + j] = row[a * n + j] - cji
                        touched = True
                if touched:
                    rows.append(row)

    vecs = linalg.nullspace(field, rows, n * n)
    basis = [
        _mat(field, [[v[a * n + i] for i in range(n)] for a in range(n)]) for v in vecs
    ]

    # coordinates of arbitrary center matrices in this basis
    stack = [list(_flatten(b)) for b in basis]

    def coords(mat: Matrix):
        cols = [[stack[k][idx] for k in range(len(stack))] for idx in range(n * n)]
        return linalg.solve(field, cols, _flatten(mat))

    unit = coords(_mat_eye(field, n))
    if unit is None:
        raise CenterNotClosed("identity matrix missing from the sliding solution space")

    structure = []
    for bi in basis:
        row = []
        for bj in basis:
            prod = _mat_mul(field, bi, bj)
            c = coords(prod)
            if c is None:
                raise CenterNotClosed("center is not closed under multiplication")
            row.append(tuple(c))
        structure.append(tuple(row))
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if structure[i][j] != structure[j][i]:
                raise CenterNotClosed("center is not commutative")

    return CenterAlgebra(
        field=field,
        dim_space=n,
        basis=tuple(basis),
        structure=tuple(structure),
        unit_coords=tuple(unit),
    )


# ---------------------------------------------------------------------------
# idempotent machinery


def _matrix_poly_eval(field, coeffs, z: Matrix, unit: Matrix) -> Matrix:
    """Evaluate a univariate polynomial (low-first coefficient list) at a
    matrix, with the given unit standing in for 1."""
    n = len(z)
    out = _mat(field, [[field.zero] * n for _ in range(n)])
    for c in reversed(list(coeffs)):
        out = _mat_mul(field, out, z)
        if not c.is_zero():
            out = _mat_add(out, _mat_scale(c, unit))
    return out


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


def _rational_roots(field, f) -> List[Fraction]:
    """Rational roots of a squarefree f over Q, by the bounded divisor test."""
    if field != QQ:
        return []
    fr = [c.coeffs[0] for c in f]
    den = 1
    for c in fr:
        den = den * c.denominator // _gcd(den, c.denominator)
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
        for r in _rational_roots(field, g):
            lin = [field.from_rational(-r), field.one]
            rest, _ = poly_divmod(field, rest, lin)
            pieces.append(lin)
        if len(rest) > 1:
            pieces.append(rest)
    return pieces


class _Block:
    """A unital commutative subalgebra e*C with its coordinate frame."""

    def __init__(self, field, unit: Matrix, basis: List[Matrix]):
        self.field = field
        self.unit = unit
        self.basis = basis
        self._stack = [_flatten(b) for b in basis]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, mat: Matrix) -> Optional[Tuple[FieldElement, ...]]:
        m = len(self._stack)
        size = len(self._stack[0])
        cols = [[self._stack[k][i] for k in range(m)] for i in range(size)]
        return linalg.solve(self.field, cols, _flatten(mat))

    def minpoly(self, z: Matrix):
        """Minimal polynomial of z acting inside this block (unit = 1)."""
        field = self.field
        pows = [self.unit]
        vecs = [list(_flatten(self.unit))]
        cur = self.unit
        while True:
            cur = _mat_mul(field, cur, z)
            size = len(vecs[0])
            cols = [[vecs[k][i] for k in range(len(vecs))] for i in range(size)]
            rep = linalg.solve(field, cols, _flatten(cur))
            if rep is not None:
                coeffs = [-c for c in rep] + [field.one]
                return poly_trim(field, coeffs)
            pows.append(cur)
            vecs.append(list(_flatten(cur)))
            if len(pows) > self.dim + 1:
                raise RuntimeError("minimal polynomial search exceeded the block dimension")

    def elements(self):
        """Deterministic candidate sequence: basis, then pairwise sums, then
        sums with small integer weights."""
        for b in self.basis:
            yield b
        m = len(self.basis)
        for i in range(m):
            for j in range(i + 1, m):
                yield _mat_add(self.basis[i], self.basis[j])
        for w in range(2, 6):
            c = self.field.from_rational(w)
            for i in range(m):
                for j in range(m):
                    if i != j:
                        yield _mat_add(self.basis[i], _mat_scale(c, self.basis[j]))

    def nilradical_rank(self) -> Tuple[int, List[Tuple[FieldElement, ...]]]:
        """Rank of the regular trace form; its kernel is the nilradical."""
        field = self.field
        m = self.dim
        gram = []
        for i in range(m):
            row = []
            for j in range(m):
                prod = _mat_mul(field, self.basis[i], self.basis[j])
                tr = field.zero
                for k in range(m):
                    rep = self.coords(_mat_mul(field, prod, self.basis[k]))
                    if rep is None:
                        raise CenterNotClosed("block is not closed under multiplication")
                    tr = tr + rep[k]
                row.append(tr)
            gram.append(row)
        kernel = linalg.nullspace(field, gram, m)
        return m - len(kernel), kernel


def _lift_idempotent(field, e: Matrix) -> Matrix:
    """Newton iteration e <- 3e^2 - 2e^3; exact once it stabilizes."""
    three = field.from_rational(3)
    minus_two = field.from_rational(-2)
    for _ in range(64):
        e2 = _mat_mul(field, e, e)
        if e2 == e:
            return e
        e3 = _mat_mul(field, e2, e)
        e = _mat_add(_mat_scale(three, e2), _mat_scale(minus_two, e3))
    raise RuntimeError("idempotent lifting failed to stabilize")


def _split_with_pieces(block: _Block, z: Matrix, pieces) -> List[Matrix]:
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
        e0 = _matrix_poly_eval(field, vh, z, block.unit)
        out.append(_lift_idempotent(field, e0))
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


def _try_split(block: _Block) -> Optional[List[Matrix]]:
    """One round: return orthogonal idempotents refining the block, or None
    when the block is certified primitive."""
    field = block.field
    if block.dim == 1:
        return None

    candidates = list(block.elements())
    minpolys = []
    for z in candidates:
        mu = block.minpoly(z)
        minpolys.append((z, mu))
        pieces = _coprime_pieces(field, mu)
        if len(pieces) >= 2:
            return _split_with_pieces(block, z, pieces)

    # gcd pipeline found nothing; certify through the semisimple quotient
    ss_rank, _ = block.nilradical_rank()
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
    field = center.field
    n = center.dim_space
    eye = _mat_eye(field, n)

    def make_block(e: Matrix) -> _Block:
        prods = [_mat_mul(field, e, b) for b in center.basis]
        rows = [list(_flatten(p)) for p in prods]
        red, pivots = linalg.rref(field, rows)
        basis = []
        for i in range(len(pivots)):
            vec = red[i]
            basis.append(_mat(field, [[vec[a * n + c] for c in range(n)] for a in range(n)]))
        return _Block(field, e, basis)

    final: List[Matrix] = []
    queue: List[Matrix] = [eye]
    while queue:
        e = queue.pop(0)
        block = make_block(e)
        split = _try_split(block)
        if split is None:
            final.append(e)
        else:
            for piece in split:
                if _mat_is_zero(piece):
                    raise RuntimeError("zero idempotent produced by a split")
            queue.extend(split)

    def key(mat: Matrix):
        return tuple(
            tuple(_element_sort_key(x) for x in row) for row in mat
        )

    return sorted(final, key=key)


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
    eye = _mat_eye(phi.field, phi.nvars)
    block = _Block(phi.field, eye, list(center.basis))
    ss_rank, _ = block.nilradical_rank()
    return ss_rank == 1
