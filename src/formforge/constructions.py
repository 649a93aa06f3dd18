"""Catalog of multiplicative-form constructions with their natural witnesses.

Each constructor returns a ConstructedForm bundling the form, provenance, and
whatever certificate the construction carries: a scaled witness, a bilinear
composition map, or an algebra presentation for Jordan composition.  Attached
witnesses are verified before the constructor returns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import linalg
from .coeffield import (
    EtaleAlgebra,
    FieldElement,
    QQ,
    RationalField,
    StructureTensor,
    field_extend,
    from_coordinates,
    integral_coordinates,
    to_coordinates,
)
from .forms import HomogeneousForm, coordinates_over_base
from .poly import Polynomial, RationalFunction, ring_matrix_determinant
from .witness import (
    ScaledWitness,
    WitnessInvalid,
    scalar_is_dth_power,
    verify_composition,
    verify_scaled_witness,
)


class DegeneratePairing(ValueError):
    """The trace pairing must be nondegenerate to solve for cross products."""


class AdjointIdentityFailure(ValueError):
    """(j#)# = N(j) j failed, so the triple is not admissible."""


class MissingWitness(ValueError):
    """The construction needs witness data the caller did not supply."""


# ---------------------------------------------------------------------------
# algebra presentations


class AlgebraPresentation:
    """A finite-dimensional algebra by structure constants: e_i e_j =
    sum_l structure[i][j][l] e_l.

    The constants live in one `StructureTensor` (`structure` may be given as
    one, or as dense planes), and the involution x -> involution * x as its
    sparse columns over one denominator, in the tensor's coordinates.  Over Q
    the unit, involution and associativity checks compare integer rows;
    field elements are built only for the public views.
    """

    def __init__(
        self,
        field,
        structure,
        unit,
        associative: bool,
        involution=None,
        norm: Optional[HomogeneousForm] = None,
        trace=None,
    ):
        self.field = field
        if not isinstance(structure, StructureTensor):
            structure = StructureTensor.from_elements(
                field, [[[self._coerce(c) for c in row] for row in plane] for plane in structure]
            )
        self.tensor = structure
        self.dim = structure.dim
        self.unit = tuple(self._coerce(c) for c in unit)
        self.associative = associative
        self.involution = (
            None
            if involution is None
            else tuple(tuple(self._coerce(c) for c in row) for row in involution)
        )
        if norm is not None and (norm.field != field or norm.nvars != self.dim):
            raise ValueError("norm is not a form on the algebra: %d variables over %r"
                             % (norm.nvars, norm.field))
        self.norm = norm
        self.trace = None if trace is None else tuple(self._coerce(c) for c in trace)
        self._check_unit()
        if self.involution is not None:
            self._columns = _involution_columns(structure, self.involution)
            self._check_involution()
        if associative:
            self._check_associative()

    def _coerce(self, c) -> FieldElement:
        if isinstance(c, FieldElement):
            return c
        return self.field.from_rational(c)

    @property
    def structure(self):
        """The dense constants: structure[i][j][l] as field elements."""
        return self.tensor.elements()

    def basis_vector(self, i: int):
        return tuple(
            self.field.one if j == i else self.field.zero for j in range(self.dim)
        )

    def product(self, x, y):
        t = self.tensor
        a, da = to_coordinates(self.field, x)
        b, db = to_coordinates(self.field, y)
        return from_coordinates(self.field, t.mul(a, b), da * db * t.den)

    def product_polys(self, x, y):
        return product_polys(self.tensor, x, y)

    def involve_polys(self, x):
        cols, ds = self._columns
        out = [Polynomial.zero(self.field, x[0].nvars) for _ in range(self.dim)]
        for j, col in enumerate(cols):
            if not x[j].is_zero():
                for i, c in col:
                    out[i] = out[i] + x[j].scale(c)
        return _over_den(self.field, out, ds)

    def structure_matrices(self):
        """z_l(x, y) coefficient matrices: out[l][i][j] multiplies x_i y_j."""
        n = self.dim
        planes = self.structure
        return tuple(
            tuple(tuple(planes[i][j][l] for j in range(n)) for i in range(n))
            for l in range(n)
        )

    def left_mult_witness_matrix(self):
        """M(X) = left multiplication by the generic element, as rational
        functions in n variables: M[l][j] = sum_i structure[i][j][l] x_i."""
        n = self.dim
        t = self.tensor
        entries = [[{} for _ in range(n)] for _ in range(n)]
        for i, plane in enumerate(t.rows):
            e = [0] * n
            e[i] = 1
            e = tuple(e)
            for j, row in enumerate(plane):
                for l, c in row:
                    entries[l][j][e] = from_coordinates(self.field, (c,), t.den)[0]
        return tuple(
            tuple(RationalFunction.from_poly(Polynomial(self.field, n, terms)) for terms in row)
            for row in entries
        )

    def _check_unit(self):
        t = self.tensor
        rows = t.rows
        u, du = to_coordinates(self.field, self.unit)
        u = [(k, c) for k, c in enumerate(u) if c]
        one = t.scalar(du * t.den)
        for i in range(self.dim):
            want = {i: one}
            if (t.combine((c, rows[k][i]) for k, c in u) != want
                    or t.combine((c, rows[i][k]) for k, c in u) != want):
                raise ValueError("unit does not act as identity on basis element %d" % i)

    def _check_involution(self):
        """s(s(e_j)) = e_j and s(e_i e_j) = s(e_j) s(e_i) on the basis, in the
        tensor's coordinates: with s(e_j) = cols[j] / ds and e_i e_j =
        rows[i][j] / D, the second reads ds * s(rows[i][j]) =
        sum cols[j][a] cols[i][b] rows[a][b], both sides over D ds^2."""
        t = self.tensor
        rows = t.rows
        cols, ds = self._columns
        one = t.scalar(ds * ds)
        for j, col in enumerate(cols):
            if t.combine((c, cols[i]) for i, c in col) != {j: one}:
                raise ValueError("involution is not of period 2")
        for i, col_i in enumerate(cols):
            for j, col_j in enumerate(cols):
                lhs = t.combine((c, cols[l]) for l, c in rows[i][j])
                if ds != 1:
                    lhs = {k: v * ds for k, v in lhs.items()}
                rhs = t.combine((a * b, rows[p][q]) for p, a in col_j for q, b in col_i)
                if lhs != rhs:
                    raise ValueError("involution is not an anti-automorphism")

    def _check_associative(self):
        """(e_i e_j) e_l = e_i (e_j e_l) on the basis, both over D^2."""
        t = self.tensor
        rows = t.rows
        n = self.dim
        for i in range(n):
            for j in range(n):
                ij = rows[i][j]
                for l in range(n):
                    lhs = t.combine((c, rows[k][l]) for k, c in ij)
                    rhs = t.combine((c, rows[i][k]) for k, c in rows[j][l])
                    if lhs != rhs:
                        raise ValueError("product is not associative")


def product_polys(tensor: StructureTensor, x, y, den: int = 1) -> list:
    """The product of two vectors of polynomials through the tensor, over
    den: the constants enter as the tensor's integers (its field elements
    over an etale field), and the sums are divided by den times the
    tensor's denominator.  When x is y, x_i x_j is formed for i <= j only,
    under the sum of the constants of b_i b_j and b_j b_i."""
    field, n = tensor.field, tensor.dim
    rows = tensor.rows
    square = x is y
    one = tensor.scalar(1)
    out = [Polynomial.zero(field, x[0].nvars) for _ in range(n)]
    for i in range(n):
        if x[i].is_zero():
            continue
        for j in range(i if square else 0, n):
            if y[j].is_zero():
                continue
            row = rows[i][j]
            if square and j != i:
                row = tensor.combine(((one, row), (one, rows[j][i]))).items()
            if not row:
                continue
            xy = x[i] * y[j]
            for l, c in row:
                out[l] = out[l] + xy.scale(c)
    return _over_den(field, out, den * tensor.den)


def _over_den(field, polys, den: int) -> list:
    if den == 1:
        return polys
    inv = field.from_rational(Fraction(1, den))
    return [p.scale(inv) for p in polys]


def _involution_columns(tensor: StructureTensor, matrix):
    """(cols, ds): column j of the matrix as sparse (i, c) pairs over ds, in
    the coordinates of the tensor."""
    n = len(matrix)
    flat, ds = to_coordinates(tensor.field, [matrix[i][j] for j in range(n) for i in range(n)])
    cols = tuple(
        tuple((i, c) for i, c in enumerate(flat[j * n : (j + 1) * n]) if c)
        for j in range(n)
    )
    return cols, ds


def split_etale_presentation(n: int, field=QQ) -> AlgebraPresentation:
    """k^n with coordinatewise product; norm = product of coordinates."""
    one = field.one
    tensor = StructureTensor.from_constants(field, n, [((i, i, i), one) for i in range(n)])
    norm = HomogeneousForm(field, n, n, Polynomial(field, n, {(1,) * n: one}))
    return AlgebraPresentation(field, tensor, [one] * n, associative=True, norm=norm,
                               trace=[one] * n)


def matrix_algebra(d: int, field=QQ) -> AlgebraPresentation:
    """Mat_d(k), row-major coordinates (i, j) -> d*i + j; norm = det."""
    n = d * d
    tensor = StructureTensor.from_constants(field, n, [
        ((d * i + j, d * j + l, d * i + l), field.one)
        for i in range(d) for j in range(d) for l in range(d)
    ])
    unit = [field.from_rational(int(i % (d + 1) == 0)) for i in range(n)]
    return AlgebraPresentation(field, tensor, unit, associative=True,
                               norm=_det_form(d, field), trace=unit)


def _det_form(d: int, field) -> HomogeneousForm:
    n = d * d
    terms = {}
    for perm in itertools.permutations(range(d)):
        inv = sum(
            1
            for a in range(d)
            for b in range(a + 1, d)
            if perm[a] > perm[b]
        )
        sign = field.one if inv % 2 == 0 else -field.one
        e = [0] * n
        for i in range(d):
            e[d * i + perm[i]] += 1
        terms[tuple(e)] = sign
    return HomogeneousForm(field, d, n, Polynomial(field, n, terms))


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling


def _double(tensor: StructureTensor, conj, norm_body, gamma: FieldElement):
    """(a,b)(c,d) = (ac + gamma conj(d) b, d a + b conj(c)); bar = (conj a, -b);
    n(a,b) = n(a) - gamma n(b).

    On basis pairs only one product survives: e_p e_q = (e_p e_q, 0),
    e_p f_q = (0, e_q e_p), f_p e_q = (0, e_p conj(e_q)) and f_p f_q =
    (gamma conj(e_q) e_p, 0), with f_p = (0, e_p).  With e_p e_q = rows / D,
    conj(e_q) = cols[q] / ds and gamma = g / dg, the new rows lie over
    D ds dg."""
    field = tensor.field
    n = tensor.dim
    rows = tensor.rows
    cols, ds = _involution_columns(tensor, conj)
    (g,), dg = to_coordinates(field, [gamma])
    lift = ds * dg

    def shifted(row, offset=0, scale=1):
        return tuple((l + offset, c * scale if scale != 1 else c) for l, c in row)

    new_rows = [[()] * (2 * n) for _ in range(2 * n)]
    for p in range(n):
        for q in range(n):
            new_rows[p][q] = shifted(rows[p][q], 0, lift)
            new_rows[p][n + q] = shifted(rows[q][p], n, lift)
            row = tensor.combine((c, rows[p][i]) for i, c in cols[q])
            new_rows[n + p][q] = shifted(sorted(row.items()), n, dg)
            row = tensor.combine((g * c, rows[i][p]) for i, c in cols[q])
            new_rows[n + p][n + q] = shifted(sorted(row.items()))
    den = tensor.den * lift
    if tensor.integral:
        common = math.gcd(den, *(c for plane in new_rows for row in plane for _, c in row))
        if common != 1:
            new_rows = [[tuple((l, c // common) for l, c in row) for row in plane]
                        for plane in new_rows]
            den //= common
    new_tensor = StructureTensor(field, tuple(tuple(plane) for plane in new_rows), den)

    zero = field.zero
    n2 = 2 * n
    new_conj = [[zero] * n2 for _ in range(n2)]
    for i in range(n):
        for j in range(n):
            new_conj[i][j] = conj[i][j]
    for i in range(n):
        new_conj[n + i][n + i] = -field.one

    low = norm_body.embed(n2, 0)
    high = norm_body.embed(n2, n)
    new_norm = low - high.scale(gamma)
    return new_tensor, new_conj, new_norm


def _cayley_dickson(field, gammas):
    tensor = StructureTensor.from_elements(field, [[[field.one]]])
    conj = [[field.one]]
    norm_body = Polynomial(field, 1, {(2,): field.one})
    for g in gammas:
        tensor, conj, norm_body = _double(tensor, conj, norm_body, g)
    dim = tensor.dim
    unit = [field.one] + [field.zero] * (dim - 1)
    norm = HomogeneousForm(field, 2, dim, norm_body)
    return AlgebraPresentation(
        field,
        tensor,
        unit,
        associative=(len(gammas) <= 2),
        involution=conj,
        norm=norm,
        trace=[field.from_rational(2)] + [field.zero] * (dim - 1),
    )


# ---------------------------------------------------------------------------
# constructed forms


@dataclass(frozen=True, eq=False)
class ConstructedForm:
    form: HomogeneousForm
    provenance: dict
    witness: Optional[ScaledWitness] = None
    composition: Optional[tuple] = None  # structure matrices for z(x, y)
    algebra: Optional[AlgebraPresentation] = None
    unit: Optional[tuple] = None
    similarity_family: Optional[Callable] = None
    extras: dict = dc_field(default_factory=dict)


def _check_witnesses(cf: ConstructedForm) -> ConstructedForm:
    if cf.witness is not None:
        rep = verify_scaled_witness(cf.form, cf.witness, mode="auto")
        if not rep.holds():
            raise WitnessInvalid(
                "%s witness %s" % (cf.provenance.get("kind", "?"), rep.verdict)
            )
    if cf.composition is not None:
        rep = verify_composition(cf.form, cf.composition, mode="auto")
        if not rep.holds():
            raise WitnessInvalid(
                "%s composition map %s" % (cf.provenance.get("kind", "?"), rep.verdict)
            )
    return cf


def _scalar_repr(c) -> str:
    if isinstance(c, FieldElement):
        try:
            return str(c.as_rational())
        except ValueError:
            return repr(c)
    return str(Fraction(c))


def diagonal_form(coeffs, d: int, field=QQ) -> ConstructedForm:
    """<a_1, ..., a_n> of degree d; carries a witness only in the one-variable
    d-th power case, where phi is isometric to <1>."""
    cs = [c if isinstance(c, FieldElement) else field.from_rational(c) for c in coeffs]
    n = len(cs)
    terms = {}
    for i, a in enumerate(cs):
        e = [0] * n
        e[i] = d
        terms[tuple(e)] = a
    form = HomogeneousForm(field, d, n, Polynomial(field, n, terms))
    witness = None
    if n == 1:
        ok, eta = scalar_is_dth_power(cs[0], d)
        if ok:
            x = Polynomial.variable(field, 1, 0)
            witness = ScaledWitness(
                scalar=RationalFunction.from_poly(form.body),
                matrix=((RationalFunction.from_poly(x.scale(eta)),),),
            )
    cf = ConstructedForm(
        form=form,
        provenance={
            "kind": "diagonal",
            "degree": d,
            "coefficients": [_scalar_repr(c) for c in cs],
        },
        witness=witness,
    )
    return _check_witnesses(cf)


def monomial_form(exponents: Sequence[int], field=QQ) -> ConstructedForm:
    """x_1^m_1 ... x_r^m_r with the coordinate-scaling witness M = diag(x_i)."""
    ms = [int(m) for m in exponents]
    if any(m < 1 for m in ms):
        raise ValueError("monomial exponents must be positive")
    n = len(ms)
    body = Polynomial(field, n, {tuple(ms): field.one})
    form = HomogeneousForm(field, sum(ms), n, body)
    zero_rf = RationalFunction.const(field, n, field.zero)
    rows = []
    for i in range(n):
        row = [zero_rf] * n
        row[i] = RationalFunction.from_poly(Polynomial.variable(field, n, i))
        rows.append(tuple(row))
    witness = ScaledWitness(
        scalar=RationalFunction.from_poly(body), matrix=tuple(rows)
    )
    cf = ConstructedForm(
        form=form,
        provenance={"kind": "monomial", "exponents": ms},
        witness=witness,
    )
    return _check_witnesses(cf)


def product_form(factors) -> ConstructedForm:
    """phi(u_1, ..., u_r) = phi_1(u_1)^s_1 ... phi_r(u_r)^s_r on the variable
    blocks.  When every factor brings a strong-multiplicativity witness, the
    block-diagonal matrix of the factor witnesses certifies the product."""
    items = []
    for phi, s in factors:
        cf = phi if isinstance(phi, ConstructedForm) else None
        form = phi.form if cf is not None else phi
        if s < 1:
            raise ValueError("powers must be positive")
        items.append((form, int(s), cf))
    field = items[0][0].field
    total_vars = sum(f.nvars for f, _, _ in items)
    body = Polynomial.const(field, total_vars, field.one)
    offset = 0
    offsets = []
    for form, s, _ in items:
        offsets.append(offset)
        body = body * (form.body.embed(total_vars, offset) ** s)
        offset += form.nvars
    degree = sum(f.degree * s for f, s, _ in items)
    form_out = HomogeneousForm(field, degree, total_vars, body)

    matrices = []
    for form, _, cf in items:
        m = _strong_mult_matrix(form, cf)
        if m is None:
            matrices = None
            break
        matrices.append(m)
    witness = None
    if matrices is not None:
        zero_rf = RationalFunction.const(field, total_vars, field.zero)
        rows = [[zero_rf] * total_vars for _ in range(total_vars)]
        for (form, _, _), off, m in zip(items, offsets, matrices):
            for i in range(form.nvars):
                for j in range(form.nvars):
                    entry = m[i][j]
                    rows[off + i][off + j] = RationalFunction(
                        entry.num.embed(total_vars, off),
                        entry.den.embed(total_vars, off),
                    )
        witness = ScaledWitness(
            scalar=RationalFunction.from_poly(body),
            matrix=tuple(tuple(r) for r in rows),
        )
    cf_out = ConstructedForm(
        form=form_out,
        provenance={
            "kind": "product",
            "powers": [s for _, s, _ in items],
            "factor_degrees": [f.degree for f, _, _ in items],
        },
        witness=witness,
    )
    return _check_witnesses(cf_out)


def _strong_mult_matrix(form: HomogeneousForm, cf: Optional[ConstructedForm]):
    """The witness matrix when cf carries a strong-multiplicativity witness
    (scalar exactly phi(X)); None otherwise."""
    if cf is None or cf.witness is None:
        return None
    if cf.witness.scalar != RationalFunction.from_poly(form.body):
        return None
    return cf.witness.matrix


def power_form(phi1, m: int) -> ConstructedForm:
    """phi_1^m.  A strong-mult witness (phi_1(X), M) transfers unchanged in M:
    the scalar becomes phi(X).  Without one, an even-degree phi_1 of degree 2
    still yields the Jordan witness (phi(X)^2, phi_1(X) I)."""
    if m < 1:
        raise ValueError("power must be positive")
    cf = phi1 if isinstance(phi1, ConstructedForm) else None
    base = cf.form if cf is not None else phi1
    field = base.field
    n = base.nvars
    body = base.body**m
    form = HomogeneousForm(field, base.degree * m, n, body)
    witness = None
    mat = _strong_mult_matrix(base, cf)
    if mat is not None:
        witness = ScaledWitness(scalar=RationalFunction.from_poly(body), matrix=mat)
    elif base.degree == 2:
        q_rf = RationalFunction.from_poly(base.body)
        zero_rf = RationalFunction.const(field, n, field.zero)
        rows = tuple(
            tuple(q_rf if i == j else zero_rf for j in range(n)) for i in range(n)
        )
        witness = ScaledWitness(
            scalar=RationalFunction.from_poly(body) ** 2, matrix=rows
        )
    cf_out = ConstructedForm(
        form=form,
        provenance={"kind": "power", "m": m, "base_degree": base.degree},
        witness=witness,
    )
    return _check_witnesses(cf_out)


def scaled_block_sum(phi, scalars, similarity_family=None) -> ConstructedForm:
    """a_1 phi \\perp ... \\perp a_r phi.  The caller supplies a similarity
    family c -> W(c) with phi(W(c) v) = c phi(v); the witness is then the
    block diagonal of W(psi(X))."""
    cf = phi if isinstance(phi, ConstructedForm) else None
    base = cf.form if cf is not None else phi
    if similarity_family is None and cf is not None:
        similarity_family = cf.similarity_family
    if similarity_family is None:
        raise MissingWitness("scaled_block_sum needs a similarity-witness family")
    field = base.field
    n = base.nvars
    cs = [c if isinstance(c, FieldElement) else field.from_rational(c) for c in scalars]
    if any(c.is_zero() for c in cs):
        raise ValueError("block scalars must be nonzero")
    r = len(cs)
    big = r * n
    body = Polynomial.zero(field, big)
    for i, a in enumerate(cs):
        body = body + base.body.embed(big, i * n).scale(a)
    form = HomogeneousForm(field, base.degree, big, body)

    w_small = similarity_family(RationalFunction.from_poly(body))
    zero_rf = RationalFunction.const(field, big, field.zero)
    rows = [[zero_rf] * big for _ in range(big)]
    for blk in range(r):
        for i in range(n):
            for j in range(n):
                rows[blk * n + i][blk * n + j] = w_small[i][j]
    witness = ScaledWitness(
        scalar=RationalFunction.from_poly(body),
        matrix=tuple(tuple(row) for row in rows),
    )
    cf_out = ConstructedForm(
        form=form,
        provenance={
            "kind": "block-sum",
            "scalars": [_scalar_repr(c) for c in cs],
            "base_degree": base.degree,
        },
        witness=witness,
    )
    return _check_witnesses(cf_out)


# ---------------------------------------------------------------------------
# determinants and composition algebras


@functools.lru_cache(maxsize=None)
def det_norm(d: int) -> ConstructedForm:
    """det on Mat_d as a degree-d form in d^2 variables, with the matrix
    product as composition map, left multiplication as scaled witness, and
    diag(c, 1, ..., 1) left multiplication as similarity family."""
    if not 2 <= d <= 4:
        raise ValueError("determinant catalog covers 2 <= d <= 4")
    field = QQ
    alg = matrix_algebra(d, field)
    form = alg.norm
    n = d * d

    def family(c: RationalFunction):
        nv = c.num.nvars
        one_rf = RationalFunction.const(field, nv, field.one)
        zero_rf = RationalFunction.const(field, nv, field.zero)
        rows = []
        for i in range(d):
            for j in range(d):
                row = [zero_rf] * n
                row[d * i + j] = c if i == 0 else one_rf
                rows.append(tuple(row))
        return tuple(rows)

    cf = ConstructedForm(
        form=form,
        provenance={"kind": "det", "d": d},
        witness=ScaledWitness(
            scalar=RationalFunction.from_poly(form.body),
            matrix=alg.left_mult_witness_matrix(),
        ),
        composition=alg.structure_matrices(),
        algebra=alg,
        unit=alg.unit,
        similarity_family=family,
    )
    return _check_witnesses(cf)


def composition_algebra_norm(kind: str, params) -> ConstructedForm:
    """Norm of the Cayley-Dickson algebra over Q: binary(a), quaternion(a, b),
    octonion(a, b, c); witness = the algebra product."""
    arity = {"binary": 1, "quaternion": 2, "octonion": 3}
    if kind not in arity:
        raise ValueError("kind must be binary, quaternion, or octonion")
    gammas = [g if isinstance(g, FieldElement) else QQ.from_rational(g) for g in params]
    if len(gammas) != arity[kind]:
        raise ValueError("%s takes %d parameters" % (kind, arity[kind]))
    if any(g.is_zero() for g in gammas):
        raise ValueError("parameters must be nonzero")
    alg = _cayley_dickson(QQ, gammas)
    cf = ConstructedForm(
        form=alg.norm,
        provenance={
            "kind": "pfister",
            "algebra": kind,
            "params": [_scalar_repr(g) for g in gammas],
        },
        witness=ScaledWitness(
            scalar=RationalFunction.from_poly(alg.norm.body),
            matrix=alg.left_mult_witness_matrix(),
        ),
        composition=alg.structure_matrices(),
        algebra=alg,
        unit=alg.unit,
    )
    return _check_witnesses(cf)


def hyperbolic_plane() -> ConstructedForm:
    return composition_algebra_norm("binary", [1])


@functools.lru_cache(maxsize=None)
def split_octonion_algebra() -> AlgebraPresentation:
    return _cayley_dickson(QQ, [QQ.one, QQ.one, QQ.one])


def tits_cubic(a) -> ConstructedForm:
    """u^3 + a v^3 + a^2 w^3 - 3a uvw, the norm of k[t]/(t^3 - a), with the
    regular representation of the generic element as witness."""
    field = QQ if not isinstance(a, FieldElement) else a.field
    a = a if isinstance(a, FieldElement) else field.from_rational(a)
    if a.is_zero():
        raise ValueError("parameter must be nonzero")
    body = Polynomial.from_pairs(
        field,
        3,
        [
            ((3, 0, 0), field.one),
            ((0, 3, 0), a),
            ((0, 0, 3), a * a),
            ((1, 1, 1), field.from_rational(-3) * a),
        ],
    )
    form = HomogeneousForm(field, 3, 3, body)
    u = Polynomial.variable(field, 3, 0)
    v = Polynomial.variable(field, 3, 1)
    w = Polynomial.variable(field, 3, 2)
    rf = RationalFunction.from_poly
    matrix = (
        (rf(u), rf(w.scale(a)), rf(v.scale(a))),
        (rf(v), rf(u), rf(w.scale(a))),
        (rf(w), rf(v), rf(u)),
    )
    # cubic algebra k[t]/(t^3 - a): basis 1, t, t^2
    zero, one = field.zero, field.one
    alg = AlgebraPresentation(
        field,
        StructureTensor.from_constants(field, 3, [
            ((i, j, (i + j) % 3), one if i + j < 3 else a) for i in range(3) for j in range(3)
        ]),
        [one, zero, zero],
        associative=True,
        norm=form,
        trace=[field.from_rational(3), zero, zero],
    )
    cf = ConstructedForm(
        form=form,
        provenance={"kind": "tits-cubic", "a": _scalar_repr(a)},
        witness=ScaledWitness(scalar=rf(body), matrix=matrix),
        composition=alg.structure_matrices(),
        algebra=alg,
        unit=alg.unit,
    )
    return _check_witnesses(cf)


# ---------------------------------------------------------------------------
# split Albert norm


@functools.lru_cache(maxsize=None)
def split_albert_norm() -> ConstructedForm:
    """27-variable cubic norm of 3x3 Hermitian matrices over the split
    octonions: N = a1 a2 a3 - sum a_i n(x_i) + t((x1 x2) x3)."""
    oct_alg = split_octonion_algebra()
    field = oct_alg.field
    big = 27

    def oct_vec(offset):
        return [Polynomial.variable(field, big, offset + i) for i in range(8)]

    a = [Polynomial.variable(field, big, i) for i in range(3)]
    x1, x2, x3 = oct_vec(3), oct_vec(11), oct_vec(19)

    n1, n2, n3 = (oct_alg.norm.body.compose(x) for x in (x1, x2, x3))
    x1x2 = oct_alg.product_polys(x1, x2)
    trilinear = oct_alg.product_polys(x1x2, x3)[0].scale(field.from_rational(2))
    body = a[0] * a[1] * a[2] - a[0] * n1 - a[1] * n2 - a[2] * n3 + trilinear
    form = HomogeneousForm(field, 3, big, body)
    unit = tuple(
        field.one if i in (0, 1, 2) else field.zero for i in range(big)
    )
    if form.eval(list(unit)) != field.one:
        raise RuntimeError("Albert norm does not take value 1 at the identity")
    cf = ConstructedForm(
        form=form,
        provenance={"kind": "albert"},
        unit=unit,
        extras={"octonions": oct_alg},
    )
    return cf


def albert_sharp(vec):
    """The quadratic adjoint X -> X# on coordinate vectors of polynomials:
    (a2 a3 - n(x1), a3 a1 - n(x2), a1 a2 - n(x3),
     conj(x3) conj(x2) - a1 x1, conj(x1) conj(x3) - a2 x2,
     conj(x2) conj(x1) - a3 x3).

    The conjugates multiply in reversed slot order; the other order breaks
    (X#)# = N(X) X over the (noncommutative) octonions."""
    oct_alg = split_octonion_algebra()
    field = oct_alg.field
    a = [vec[0], vec[1], vec[2]]
    xs = [list(vec[3:11]), list(vec[11:19]), list(vec[19:27])]
    conj = [oct_alg.involve_polys(x) for x in xs]
    norms = [oct_alg.norm.body.compose(x) for x in xs]
    out = [
        a[1] * a[2] - norms[0],
        a[2] * a[0] - norms[1],
        a[0] * a[1] - norms[2],
    ]
    pairs = [(1, 2), (2, 0), (0, 1)]
    for idx, (p, q) in enumerate(pairs):
        prod = oct_alg.product_polys(conj[q], conj[p])
        for coord in range(8):
            out.append(prod[coord] - a[idx] * xs[idx][coord])
    return out


# ---------------------------------------------------------------------------
# admissible triples and the structurable quartic


class AdmissibleTriple:
    """Cubic forms N on J and N' on J', paired by T, with the derived cross
    products and sharp maps.  T(l, j x i) = N(j, i, l) and
    T(j' x i', l') = N'(j', i', l'), where N(,,) is the full trilinear form.
    The cross products are `StructureTensor`s: cross_j.rows[a][b] holds the
    coordinates of b_a x b_b in J', and cross_jp those of b'_a x b'_b in J."""

    def __init__(self, field, N: HomogeneousForm, Np: HomogeneousForm, gram, zeta=None):
        self.field = field
        self.N = N
        self.Np = Np
        self.dim_j = N.nvars
        self.dim_jp = Np.nvars
        self.gram = tuple(tuple(row) for row in gram)  # T(b_a, b'_c)
        if self.dim_j != self.dim_jp or len(self.gram) != self.dim_j or any(
            len(row) != self.dim_jp for row in self.gram
        ):
            raise ValueError("pairing matrix shape mismatch")
        if N.degree != 3 or Np.degree != 3:
            raise ValueError("N and N' must be cubic forms")
        self.zeta = zeta
        self.cross_j = self._solve_cross(N, self.gram)
        self.cross_jp = self._solve_cross(Np, tuple(zip(*self.gram)))
        self._adjoint_checked = False

    def _solve_cross(self, N, gram) -> StructureTensor:
        """The cross product on the space of N, solved from the pairing
        system: equation l reads sum_c gram[l][c] x_c = 6 theta(b_a, b_b, b_l),
        and 6 theta(b_a, b_b, b_l) = c_e prod_i m_i!, with c_e the
        coefficient of N at the exponent e of x_a x_b x_l and m_i its
        entries.  Each equation holds its gram row and its m^2 right-hand
        sides in ints over one denominator, the right-hand sides read from
        N's packed ints, and one elimination of all of them gives each
        particular solution (free variables 0), as a solve of each system
        alone would."""
        field, m = self.field, N.nvars
        rational = isinstance(field, RationalField)
        k = field.absolute_degree
        flat, dg = integral_coordinates([q for row in gram for x in row for q in field.flat(x)])
        terms, dn = N.body.int_terms()

        def times(v, f):
            return v * f if rational else [x * f for x in v]

        entries = flat if rational else [flat[i : i + k] for i in range(0, len(flat), k)]
        aug = [{} for _ in range(m)]
        for i, v in enumerate(entries):
            if v if rational else any(v):
                aug[i // m][i % m] = times(v, dn)
        for e, c in terms:
            v = times(c, dg * math.prod(map(math.factorial, e)))
            idx = [i for i, x in enumerate(e) for _ in range(x)]
            for l in set(idx):
                a, b = idx[:idx.index(l)] + idx[idx.index(l) + 1 :]
                aug[l][m + a * m + b] = aug[l][m + b * m + a] = v
        red, pivots = linalg.rref(field, aug)
        if pivots and pivots[-1] >= m:
            raise DegeneratePairing("pairing does not determine the cross product")
        constants = []
        for row, pc in zip(red, pivots):
            cols = [c for c in row if c >= m]
            values = from_coordinates(field, [row[c] for c in cols], row[pc] if rational else 1)
            constants.extend(((*divmod(c - m, m), pc), x) for c, x in zip(cols, values))
        return StructureTensor.from_constants(field, m, constants)

    def sharp_j(self, vec):
        """j# = (1/2) j x j for a polynomial vector over J; lands in J'."""
        return product_polys(self.cross_j, vec, vec, 2)

    def sharp_jp(self, vec):
        return product_polys(self.cross_jp, vec, vec, 2)

    def pair_polys(self, u, v):
        """T(u, v) for polynomial vectors u over J, v over J'."""
        out = Polynomial.zero(self.field, u[0].nvars)
        for ua, row in zip(u, self.gram):
            for vc, g in zip(v, row):
                if g and not ua.is_zero() and not vc.is_zero():
                    out = out + (ua * vc).scale(g)
        return out

    def check_adjoint(self):
        """(j#)# = N(j) j and (j'#)# = N'(j') j', symbolically."""
        if self._adjoint_checked:
            return
        m = self.dim_j
        vec = [Polynomial.variable(self.field, m, i) for i in range(m)]
        for sharp_in, sharp_out, norm in ((self.sharp_j, self.sharp_jp, self.N),
                                          (self.sharp_jp, self.sharp_j, self.Np)):
            for c, p in enumerate(sharp_out(sharp_in(vec))):
                if p != norm.body * vec[c]:
                    raise AdjointIdentityFailure("(j#)# = N(j) j fails in coordinate %d" % c)
        self._adjoint_checked = True


def jordan_triple_from_degree3(J: AlgebraPresentation, zeta) -> AdmissibleTriple:
    """(zeta T_J, zeta N_J, zeta^2 N_J) on (J, J) for a degree-3 algebra with
    norm N_J and trace pairing T_J(x, y) = trace(x y).  The pairing is read
    from the tensor's rows and the trace's coordinates: T_J(b_i, b_j) is
    sum over (l, c) in rows[i][j] of trace_l c, over the denominators."""
    field = J.field
    zeta = zeta if isinstance(zeta, FieldElement) else field.from_rational(zeta)
    if zeta.is_zero():
        raise ValueError("zeta must be nonzero")
    if J.norm is None or J.norm.degree != 3 or J.trace is None:
        raise ValueError("presentation needs a cubic norm and a trace")
    t = J.tensor
    tr, dtr = to_coordinates(field, J.trace)
    (z,), dz = to_coordinates(field, [zeta])
    gram = [
        from_coordinates(field, [z * sum((tr[l] * c for l, c in row), t.zero) for row in plane],
                         dz * dtr * t.den)
        for plane in t.rows
    ]
    if linalg.rank(field, gram) != J.dim:
        raise DegeneratePairing("trace pairing is degenerate")
    N = HomogeneousForm(field, 3, J.dim, J.norm.body.scale(zeta))
    Np = HomogeneousForm(field, 3, J.dim, N.body.scale(zeta))
    triple = AdmissibleTriple(field, N, Np, gram, zeta=zeta)
    triple.check_adjoint()
    return triple


def structurable_quartic(triple: AdmissibleTriple) -> ConstructedForm:
    """N_A(alpha, beta, j, j') = 4 alpha N(j) + 4 beta N'(j')
    - 4 T(j'#, j#) + (alpha beta - T(j, j'))^2."""
    triple.check_adjoint()
    field = triple.field
    m = triple.dim_j
    big = 2 + 2 * m
    x = [Polynomial.variable(field, big, i) for i in range(big)]
    alpha, beta, j, jp = x[0], x[1], x[2 : 2 + m], x[2 + m :]
    body = (
        alpha * triple.N.body.embed(big, 2)
        + beta * triple.Np.body.embed(big, 2 + m)
        - triple.pair_polys(triple.sharp_jp(jp), triple.sharp_j(j))
    ).scale(4) + (alpha * beta - triple.pair_polys(j, jp)) ** 2
    form = HomogeneousForm(field, 4, big, body)
    unit = tuple(field.one if i < 2 else field.zero for i in range(big))
    if form.eval(list(unit)) != field.one:
        raise RuntimeError("structurable quartic does not take value 1 at the unit")
    return ConstructedForm(
        form=form,
        provenance={
            "kind": "structurable",
            "dim": big,
            "zeta": None if triple.zeta is None else _scalar_repr(triple.zeta),
        },
        unit=unit,
        extras={"triple": triple},
    )


# ---------------------------------------------------------------------------
# Cayley-Dickson quartic (Example-4 doubling of a degree-4 Jordan algebra)


def split_jordan_q4() -> AlgebraPresentation:
    return split_etale_presentation(4)


def cd_theta_matrix(B: AlgebraPresentation):
    """theta(b) = -b + (1/2) t(b) 1 as a matrix; checked to have period 2.

    With u the unit and t the trace, theta = (1/2) u t^T - I, so
    theta^2 = I + c u t^T with c = t^T u / 4 - 1: theta has period 2 exactly
    when every c u_i t_j is zero, which over a field is c = 0, u = 0 or
    t = 0.  The check takes one dot product when c is zero."""
    field = B.field
    if B.trace is None:
        raise ValueError("presentation needs a trace")
    u, t = B.unit, B.trace
    half = field.from_rational(Fraction(1, 2))
    rows = tuple(
        tuple(half * ui * tj - field.one if i == j else half * ui * tj
              for j, tj in enumerate(t))
        for i, ui in enumerate(u)
    )
    c = sum((a * b for a, b in zip(t, u)), field.zero) * field.from_rational(Fraction(1, 4))
    c = c - field.one
    if not c.is_zero() and any(not (c * a * b).is_zero() for a in u for b in t):
        raise ValueError("theta is not of period 2")
    return rows


def cayley_dickson_quartic(B: AlgebraPresentation, mu) -> ConstructedForm:
    """N(b1, b2) = Q(b1) + mu^2 Q(b2) + (mu/2) t(U_b1 b2, b2)
    - (mu/4) t(b1, b2)^2, with U_b1 b2 = b1 b2 b1 and t(x, y) = trace(x y)."""
    field = B.field
    mu = mu if isinstance(mu, FieldElement) else field.from_rational(mu)
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    if B.norm is None or B.norm.degree != 4 or B.trace is None:
        raise ValueError("presentation needs a quartic norm and a trace")
    if not B.associative:
        raise ValueError("U-operator route needs an associative presentation")
    if B.norm.eval(list(B.unit)) != field.one:
        raise ValueError("Q(1) must be 1")
    n = B.dim
    big = 2 * n
    b1 = [Polynomial.variable(field, big, i) for i in range(n)]
    b2 = [Polynomial.variable(field, big, n + i) for i in range(n)]

    def trace_pair(x, y):
        prod = B.product_polys(x, y)
        out = Polynomial.zero(field, big)
        for t, p in zip(B.trace, prod):
            if not t.is_zero():
                out = out + p.scale(t)
        return out

    u_b1_b2 = B.product_polys(B.product_polys(b1, b2), b1)
    q1 = B.norm.body.embed(big, 0)
    q2 = B.norm.body.embed(big, n)
    body = (
        q1
        + q2.scale(mu * mu)
        + trace_pair(u_b1_b2, b2).scale(mu * field.from_rational(Fraction(1, 2)))
        - (trace_pair(b1, b2) ** 2).scale(mu * field.from_rational(Fraction(1, 4)))
    )
    form = HomogeneousForm(field, 4, big, body)
    unit = tuple(list(B.unit) + [field.zero] * n)
    if form.eval(list(unit)) != field.one:
        raise RuntimeError("Cayley-Dickson quartic does not take value 1 at (1, 0)")
    return ConstructedForm(
        form=form,
        provenance={"kind": "cayley-dickson", "mu": _scalar_repr(mu), "dim": big},
        unit=unit,
        extras={"theta": cd_theta_matrix(B), "base_algebra": B},
    )


# ---------------------------------------------------------------------------
# norm composition (transfer by the field norm)


def norm_via_regular(A: EtaleAlgebra, phi0: HomogeneousForm) -> Polynomial:
    """Transfer route 1: the determinant of multiplication by U = phi0(v)
    on A over its base, column k the coordinates of U t^k."""
    m = A.degree
    cols = coordinates_over_base(A, phi0, m)
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    return ring_matrix_determinant(rows, Polynomial.zero(A.base, m * phi0.nvars))


def norm_compose(A, phi0: HomogeneousForm) -> ConstructedForm:
    """phi(v) = n_{A/base}(phi0(v)): degree [A:base] * deg(phi0) over the base
    field, by the regular-representation route."""
    if isinstance(A, RationalField):
        return ConstructedForm(
            form=phi0, provenance={"kind": "norm-compose", "extension_degree": 1}
        )
    if phi0.field != A:
        raise ValueError("phi0 must be defined over A")
    base = A.base
    m = A.degree
    form = HomogeneousForm(base, m * phi0.degree, m * phi0.nvars, norm_via_regular(A, phi0))
    return ConstructedForm(
        form=form,
        provenance={
            "kind": "norm-compose",
            "extension_degree": m,
            "minpoly": [str(_as_fraction_or_repr(c)) for c in A.minpoly],
            "base_degree": phi0.degree,
        },
    )


def _as_fraction_or_repr(c: FieldElement):
    try:
        return c.as_rational()
    except ValueError:
        return repr(c)


# ---------------------------------------------------------------------------
# catalog


def catalog():
    """Every built-in constructed form, with provenance."""
    entries = [
        ("hyperbolic-plane", lambda: hyperbolic_plane()),
        ("binary-gauss", lambda: composition_algebra_norm("binary", [-1])),
        ("quaternion-hamilton", lambda: composition_algebra_norm("quaternion", [-1, -1])),
        ("octonion-degen", lambda: composition_algebra_norm("octonion", [-1, -1, -1])),
        ("octonion-split", lambda: composition_algebra_norm("octonion", [1, 1, 1])),
        ("det-2", lambda: det_norm(2)),
        ("det-3", lambda: det_norm(3)),
        ("tits-cubic-1", lambda: tits_cubic(1)),
        ("tits-cubic-2", lambda: tits_cubic(2)),
        ("monomial-x2y2", lambda: monomial_form([2, 2])),
        ("product-hyperbolic-linear", lambda: _catalog_product()),
        ("power-hyperbolic-square", lambda: power_form(hyperbolic_plane(), 2)),
        ("block-sum-det3", lambda: scaled_block_sum(det_norm(3), [1, 2])),
        ("norm-compose-sqrt5", lambda: _catalog_norm_compose()),
        ("albert", lambda: split_albert_norm()),
        ("structurable-mat3", lambda: _catalog_structurable()),
        ("cayley-dickson-q4", lambda: cayley_dickson_quartic(split_jordan_q4(), 1)),
    ]
    return [(name, build()) for name, build in entries]


def _catalog_product():
    hyp = hyperbolic_plane()
    line = monomial_form([1])
    return product_form([(hyp, 1), (line, 1)])


def _catalog_norm_compose():
    A = field_extend(QQ, [-5, 0, 1])
    phi0 = HomogeneousForm(
        A,
        2,
        2,
        Polynomial.from_pairs(
            A, 2, [((2, 0), A.one), ((0, 2), A.from_rational(2))]
        ),
    )
    return norm_compose(A, phi0)


def _catalog_structurable():
    triple = jordan_triple_from_degree3(matrix_algebra(3), 1)
    return structurable_quartic(triple)
