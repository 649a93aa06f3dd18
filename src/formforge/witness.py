"""Witness verification, obstruction procedures, and exponent calculus.

Every notion of multiplicativity is one identity, c(X) * phi(Y) =
phi(N(X) Y) over k(X).  A scaled witness is a scalar c(X) and a matrix M(X)
of rational functions: strong multiplicativity has c = phi(X),
strong-Jordan phi(X)^2, exponent phi(X)^s, similarity a constant and twist
mu phi(X)^s.  Composition phi(x) phi(y) = phi(xy) is c = phi(x) with
N = L_x, and Jordan composition phi({v w v}) = phi(v)^2 phi(w) is
c = phi(v)^2 with N = U_v.  One driver, `_verify_scaled`, checks them all:
it clears denominators and compares polynomials, either symbolically (a
proof) or by exact evaluation at random points (evidence with a stated
bound).
"""

from __future__ import annotations

import math
import operator
import os
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat
from typing import List, Optional, Tuple

from . import linalg
from .coeffield import (FieldElement, QQ, RationalField, StructureTensor, etale_norm,
                        restrict_scalars)
from .decompose import DegenerateInput, krull_schmidt_decompose
from .forms import DimensionMismatch, HomogeneousForm
from .poly import (
    DEFAULT_BOX_HALFWIDTH,
    DEFAULT_SAMPLES,
    DEFAULT_TERM_BUDGET,
    EvalProgram,
    Polynomial,
    RationalFunction,
    TermBudgetExceeded,
    clear_denominators,
    columns_equal,
    compose_estimate,
    is_dth_power,
    left_multiplication,
    linear_forms,
    ring_matrix_determinant,
    sample_identity,
    u_operator,
    verify_identity,
)


class SingularWitness(ValueError):
    """The witness matrix must be invertible over k(X)."""


class UnitMismatch(ValueError):
    """Jordan composition requires phi(1) = 1."""


class WitnessInvalid(ValueError):
    """A construction-time witness failed its own verification."""


def term_budget() -> int:
    """The symbolic expansion budget; FORMFORGE_TERM_BUDGET overrides."""
    raw = os.environ.get("FORMFORGE_TERM_BUDGET")
    if raw is None:
        return DEFAULT_TERM_BUDGET
    value = int(raw)
    if value <= 0:
        raise ValueError("FORMFORGE_TERM_BUDGET must be positive")
    return value


@dataclass(frozen=True, eq=False)
class ScaledWitness:
    scalar: RationalFunction  # c(X)
    matrix: Tuple[Tuple[RationalFunction, ...], ...]  # M(X), n x n

    @property
    def dim(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class VerificationReport:
    verdict: str  # "proved" | "refuted" | "evidence"
    mode: str  # "symbolic" | "random"
    identity: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    box_halfwidth: Optional[int] = None
    counterexample: Optional[tuple] = None
    per_sample_bound: Optional[Fraction] = None
    overall_bound: Optional[Fraction] = None
    elapsed_s: float = 0.0
    notes: str = ""

    def holds(self) -> bool:
        return self.verdict in ("proved", "evidence")


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str  # "obstructed" | "consistent_unknown"
    dims: Tuple[int, ...]
    clause: Optional[str] = None
    power_test: str = ""
    details: str = ""


def _resolve_mode(requested: str, estimate: int, budget: int, seed: Optional[int]):
    """auto picks symbolic unless the estimate exceeds the budget."""
    if requested == "symbolic":
        if estimate > budget:
            raise TermBudgetExceeded(estimate, budget)
        return "symbolic", seed, ""
    if requested == "random":
        if seed is None:
            raise ValueError("random mode needs an explicit seed")
        return "random", seed, ""
    if requested != "auto":
        raise ValueError("mode must be symbolic, random, or auto")
    if estimate > budget:
        note = "fell back to random: estimated %d terms over budget %d" % (estimate, budget)
        return "random", (0 if seed is None else seed), note
    return "symbolic", seed, ""


def _zero_at(v):
    """Whether each point's value, with the int columns v, is zero."""
    return map(operator.not_, reduce(partial(map, operator.or_), v))


# ---------------------------------------------------------------------------
# scaled witnesses


def _invertibility_points(nx: int):
    """The all-ones point, then 40 from a generator seeded with 1, in boxes
    of halfwidth 3 that double every eight points; drawn as they are used."""
    yield (1,) * nx
    rng = random.Random(1)
    bound = 3
    for i in range(40):
        yield tuple(rng.randint(-bound, bound) for _ in range(nx))
        if i % 8 == 7:
            bound *= 2


@dataclass(frozen=True)
class _SparseRows:
    """Where the nonzero entries of a square matrix, listed row by row, sit:
    row i's are entries starts[i] up to ends[i], in the columns
    cols[starts[i]:ends[i]]."""

    cols: list
    starts: list
    ends: list

    def split(self, entries: list) -> list:
        """Each row's (columns, entries)."""
        return [(self.cols[a:b], entries[a:b]) for a, b in zip(self.starts, self.ends)]

    def matvec(self, entries: list, ys: list, m: int) -> list:
        """The m int columns of each coordinate of M y over a batch, for the
        int columns ys of y and the m columns of each nonzero entry of M;
        a row with no nonzero entry gives zero at every point."""
        zero = [0] * len(ys[0])

        def row(values, cols):
            # each point's sum of the products of the row's entries with y;
            # zip hands sum one tuple, reused from point to point
            return list(map(sum, zip(*map(map, repeat(operator.mul), values,
                                          map(ys.__getitem__, cols)))))

        return [[row(col, cols) for col in zip(*vs)] if cols else [zero] * m
                for cols, vs in self.split(entries)]


def _sparse_program(D: Polynomial, scalar: RationalFunction, N):
    """The one program over X of a scaled check: D, num(c), den(c) and then
    the nonzero entries of N row by row, all in one ring, with the
    `_SparseRows` of those entries."""
    polys, cols, starts, ends = [D, scalar.num, scalar.den], [], [], []
    for row in N:
        starts.append(len(cols))
        for j, p in enumerate(row):
            if not p.is_zero():
                polys.append(p)
                cols.append(j)
        ends.append(len(cols))
    return EvalProgram(polys), _SparseRows(cols, starts, ends)


def _matrix_invertible(N, prog: EvalProgram, rows: _SparseRows) -> None:
    """Prove det M(X) is not identically zero, or raise SingularWitness.

    With N = D * M, one integer point x where N(x) is invertible proves
    nonvanishing: where the rank over Q of its restriction of scalars
    R(N(x)) (`restrict_scalars`, on the program's int values) is n m, as
    det R(N(x)) is the norm of det N(x).  That rank is at most the rank r
    of R(N) over Q(X), and equals it off a proper subvariety, so once two
    random points give the same rank below n m, r is most likely that
    rank: the symbolic determinant of N decides then, or when the points
    run out.  The all-ones point is not counted, as it lies on every
    x_i = x_j.  Over a product of fields a nonzero det that is a zero
    divisor at every point is decided the same way.  Since D is nonzero,
    det M vanishes identically exactly when det N does.  `prog` and `rows`
    are `_sparse_program`'s; this check reads the values of D and of the
    nonzero entries of N, all over one denominator, which leaves the rank
    as it is.
    """
    field, nx, m = prog.field, prog.nvars, prog.field.absolute_degree
    full = len(N) * m
    best = seen = 0  # the highest rank below full so far, and at how many points
    for k, pt in enumerate(_invertibility_points(nx)):
        d, _, _, *entries = prog.at([[[x]] for x in pt], 1)
        if not any(chain.from_iterable(d)):
            continue
        # each entry's value at x as `restrict_scalars` reads it: the tuple of
        # its flat coordinates, or over Q its one int
        flat = list(chain.from_iterable(chain.from_iterable(entries)))
        if not isinstance(field, RationalField):
            flat = list(zip(*[iter(flat)] * m))
        sparse = [{j: v for j, v in zip(cols, row) if v} for cols, row in rows.split(flat)]
        r = linalg.rank(QQ, restrict_scalars(field, sparse))
        if r == full:
            return
        if k == 0:
            continue
        if r > best:
            best, seen = r, 1
        elif r == best:
            seen += 1
            if seen == 2:
                break
    if ring_matrix_determinant(N, Polynomial.zero(field, nx)).is_zero():
        raise SingularWitness("witness matrix has identically zero determinant")


def _verify_scaled(
    t0: float,
    identity: str,
    phi: HomogeneousForm,
    c: RationalFunction,
    s: int,
    N,
    D: Polynomial,
    compiled,
    mode: str,
    samples: int,
    seed: Optional[int],
    box_halfwidth: int,
    budget: Optional[int],
) -> VerificationReport:
    """The one identity check behind every verify_* function: the cleared
    scaled identity P = 0,

        num(c)(X) * phi(X)^s * D(X)^d * phi(Y) == den(c)(X) * phi(N(X) Y),

    for c and D in the nx variables X, N a square matrix of polynomials in
    X, and d the degree of phi; the scalar is c(X) phi(X)^s.  A scaled
    witness M with its scalar c (`verify_scaled_witness`) is s = 0 and
    N = D M; composition is c = 1, s = 1 and N = L_x; Jordan composition
    c = 1, s = 2 and N = U_v, so phi(X)^s is evaluated through phi's own
    program rather than expanded.  `compiled` is the `_sparse_program` of
    (D, c, N) when the caller built it already, else None: it is then
    compiled only when random mode samples.

    The mode is resolved against an estimate of the symbolic expansion:
    `compose_estimate` over the rows of N(X) Y (`linear_forms`), plus the
    products of the left side's terms.  Symbolic mode composes phi with
    those rows and compares canonically (`verify_identity`).

    Random mode expands nothing (`sample_identity`).  At a sample (x, y)
    the program gives the numerators of D(x), num(c)(x), den(c)(x) and the
    nonzero entries of N(x) over one denominator L, and phi's program
    those of phi(x), phi(y) and phi(N(x) y) over its own denominator; with
    phi homogeneous the two sides are products of those values through the
    field's multiplication tensor (`StructureTensor.mul_columns`, Q's 1 x 1
    one over Q), on the m int columns of a batch (`EvalProgram.at`).  A
    product of k values carries Dt^(k - 1) more in its denominator, Dt the
    tensor's, so the right side is scaled by Dt^(d + s), and by the
    denominator of phi(x)^s, before the two compare column by column.  The
    poles, den(c)(x) = 0 or D(x) = 0, are redrawn.  With Q = den(c) D,
    deg P at most
    max(deg num(c) + s d + d deg D + d, deg den(c) + d (max deg N + 1))
    and S the box, Schwartz-Zippel bounds the chance that a wrong identity
    passes a sample off the poles by Pr[P = 0 | Q != 0] <=
    deg P / (|S| - deg Q) <= (deg P + deg Q) / |S| (the last while the sum
    is at most |S|; above it the bound is 1), which is the bound reported
    per sample.  Composition reads 2d and Jordan composition 3d."""
    d, n, nx = phi.degree, phi.nvars, D.nvars
    budget = term_budget() if budget is None else budget
    rows = estimate = None
    if mode != "random":
        rows = linear_forms(N)
        lhs_terms = (c.num.term_count() * phi.body.term_count() ** (s + 1)
                     * D.term_count() ** d)
        estimate = min(compose_estimate(phi.body, rows) + lhs_terms, 10**15)
    use_mode, use_seed, note = _resolve_mode(mode, estimate, budget, seed)
    big = nx + n
    if use_mode == "symbolic":
        num = c.num * phi.body**s if s else c.num
        lhs = (num * D**d).embed(big, 0) * phi.body.embed(big, nx)
        rhs = c.den.embed(big, 0) * phi.body.compose(rows)
        rep = verify_identity(lhs, rhs, mode="symbolic")
    else:
        prog, sparse = compiled or _sparse_program(D, c, N)
        T = phi.field.tensor()

        def agree(coords, size):
            pprog = phi.body.program()  # compiled at the first sample, and kept
            x, y = [[c] for c in coords[:nx]], [[c] for c in coords[nx:]]
            dval, a, b, *entries = prog.at(x, size)
            v = sparse.matvec(entries, coords[nx:], T.dim)
            lhs = [a] + [dval] * d + pprog.at(y, size)
            if s:  # phi(x)^s
                lhs += pprog.at(x, size) * s
            rhs = reduce(T.mul_columns, [b] + pprog.at(v, size))
            k = pprog.den**s * T.den ** (d + s)
            if k != 1:
                rhs = [list(map(operator.mul, col, repeat(k))) for col in rhs]
            poles = map(operator.or_, _zero_at(b), _zero_at(dval))
            return [None if pole else same for pole, same in
                    zip(poles, columns_equal(reduce(T.mul_columns, lhs), rhs))]

        deg_n = max(map(Polynomial.total_degree, chain.from_iterable(N)))
        deg_p = max(c.num.total_degree() + s * d + d * D.total_degree() + d,
                    c.den.total_degree() + d * (deg_n + 1))
        degree = deg_p + c.den.total_degree() + D.total_degree()
        rep = sample_identity(agree, big, degree, samples, use_seed, box_halfwidth)
    return VerificationReport(
        identity=identity,
        elapsed_s=time.perf_counter() - t0,
        notes=note,
        **{f.name: getattr(rep, f.name) for f in fields(rep)},
    )


def verify_scaled_witness(
    phi: HomogeneousForm,
    w: ScaledWitness,
    mode: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
    budget: Optional[int] = None,
) -> VerificationReport:
    """Check num(c) * den(M)^d * phi(Y) = den(c) * phi_cleared(M Y): the
    denominators of M cleared (`clear_denominators`, N = D M), det M
    proved nonzero (`_matrix_invertible`, else SingularWitness), then
    `_verify_scaled`."""
    t0 = time.perf_counter()
    n = phi.nvars
    if w.dim != n or any(len(row) != n for row in w.matrix):
        raise DimensionMismatch("witness matrix must be %d x %d" % (n, n))
    # N = D * M over the common denominator D of the matrix entries, and
    # c = num / den, all in the larger of the two variable counts: the
    # smaller side is embedded at offset 0
    N, D = clear_denominators(w.matrix)
    c = w.scalar
    nx = max(D.nvars, c.num.nvars)
    if D.nvars < nx:
        D = D.embed(nx, 0)
        N = [[e.embed(nx, 0) for e in row] for row in N]
    if c.num.nvars < nx:
        c = RationalFunction(c.num.embed(nx, 0), c.den.embed(nx, 0))
    compiled = _sparse_program(D, c, N)
    _matrix_invertible(N, *compiled)
    identity = "num(c) * den(M)^%d * phi(Y) == den(c) * phi_cleared(M Y)" % phi.degree
    return _verify_scaled(t0, identity, phi, c, 0, N, D, compiled,
                          mode, samples, seed, box_halfwidth, budget)


def _as_matrix(witness) -> Tuple[Tuple[RationalFunction, ...], ...]:
    if isinstance(witness, ScaledWitness):
        return witness.matrix
    return tuple(tuple(row) for row in witness)


def _verify_with_scalar(phi, scalar: Polynomial, witness, kw) -> VerificationReport:
    """`verify_scaled_witness` of the witness matrix with the scalar c(X)."""
    w = ScaledWitness(scalar=RationalFunction.from_poly(scalar), matrix=_as_matrix(witness))
    return verify_scaled_witness(phi, w, **kw)


def verify_strong_multiplicativity(phi, witness, **kw) -> VerificationReport:
    """c(X) = phi(X): the witness certifies phi(X) * phi = phi over k(X)."""
    return _verify_with_scalar(phi, phi.body, witness, kw)


def verify_strong_jordan_multiplicativity(phi, witness, **kw) -> VerificationReport:
    return _verify_with_scalar(phi, phi.body**2, witness, kw)


def verify_exponent(phi, witness, s: int, **kw) -> VerificationReport:
    if s < 1:
        raise ValueError("exponent must be positive")
    return _verify_with_scalar(phi, phi.body**s, witness, kw)


def verify_similarity(phi, witness, scalar, **kw) -> VerificationReport:
    """Constant scalar a: certifies a * phi = phi composed with M."""
    nx = _as_matrix(witness)[0][0].num.nvars
    return _verify_with_scalar(phi, Polynomial.const(phi.field, nx, scalar), witness, kw)


def verify_mu_twist(phi, witness, mu, s: int = 1, **kw) -> VerificationReport:
    """c(X) = mu * phi(X)^s."""
    return _verify_with_scalar(phi, (phi.body**s).scale(mu), witness, kw)


# ---------------------------------------------------------------------------
# composition and Jordan composition


def verify_composition(
    phi: HomogeneousForm,
    structure,
    mode: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
    budget: Optional[int] = None,
) -> VerificationReport:
    """phi(x) phi(y) = phi(z(x, y)) for the bilinear z given by structure
    matrices, z_l = sum_ij structure[l][i][j] x_i y_j, or by an algebra's
    `StructureTensor` T, z = xy with z_l = sum_ij T[i][j][l] x_i y_j.  As
    z(x, y) = L_x y, this is the scaled identity with scalar phi(x) and
    N = L_x (`left_multiplication`), L_x[l][j] = sum_i structure[l][i][j]
    x_i.  L_x is not checked for invertibility: where the identity holds
    for a nondegenerate phi, L_x is invertible (else y -> phi(L_x y) =
    phi(x) phi(y) would be degenerate), and a wrong z is refuted, not
    refused as singular."""
    t0 = time.perf_counter()
    n, field = phi.nvars, phi.field
    if not isinstance(structure, StructureTensor):
        structure = _structure_tensor(field, n, structure)
    elif structure.dim != n:
        raise DimensionMismatch("need one structure matrix per coordinate")
    one = Polynomial.const(field, n, field.one)
    return _verify_scaled(t0, "phi(x) * phi(y) == phi(z(x, y))", phi,
                          RationalFunction(one, one), 1, left_multiplication(structure), one,
                          None, mode, samples, seed, box_halfwidth, budget)


def _structure_tensor(field, n: int, structure) -> StructureTensor:
    """The tensor of n structure matrices of n x n: T[i][j][l] =
    structure[l][i][j], field elements or rationals."""
    if len(structure) != n:
        raise DimensionMismatch("need one structure matrix per coordinate")
    if any(len(plane) != n or any(len(row) != n for row in plane) for plane in structure):
        raise DimensionMismatch("structure matrices must be %d x %d" % (n, n))
    zero = field.zero  # decoded payloads share it
    constants = [((i, j, l), c if isinstance(c, FieldElement) else field.from_rational(c))
                 for l, plane in enumerate(structure) for i, row in enumerate(plane)
                 for j, c in enumerate(row) if c is not zero]
    return StructureTensor.from_constants(field, n, [(k, c) for k, c in constants if c])


def verify_jordan_composition(
    phi: HomogeneousForm,
    algebra,
    mode: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
    budget: Optional[int] = None,
) -> VerificationReport:
    """phi({v w v}) = phi(v)^2 phi(w), with {v w v} from the presentation:
    v(wv) when the product is associative, else the U-operator
    2(v.w).v - w.(v.v) of the Jordan product x.y = (xy + yx)/2, which is
    v(wv) again in an alternative algebra.  Requires phi(unit) = 1
    (UnitMismatch otherwise).  This is the scaled identity with scalar
    phi(v)^2 and N = U_v, whose column j is {v e_j v} (`u_operator`).  U_v
    is not checked for invertibility, for the reason L_x is not in
    `verify_composition`."""
    t0 = time.perf_counter()
    n = phi.nvars
    field = phi.field
    if algebra.dim != n:
        raise DimensionMismatch("presentation dimension does not match the form")
    unit_val = phi.body.eval(list(algebra.unit))
    if unit_val != field.one:
        raise UnitMismatch("phi(1) = %r, expected 1" % (unit_val,))

    one = Polynomial.const(field, n, field.one)
    return _verify_scaled(t0, "phi({v w v}) == phi(v)^2 * phi(w)", phi,
                          RationalFunction(one, one), 2,
                          u_operator(algebra.tensor, algebra.associative), one,
                          None, mode, samples, seed, box_halfwidth, budget)


# ---------------------------------------------------------------------------
# scalar d-th power tests


def _int_nth_root(x: int, d: int) -> Optional[int]:
    if x < 0:
        return None
    if x in (0, 1):
        return x
    lo, hi = 0, 1
    while hi**d < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**d == x else None


def rational_is_dth_power(q: Fraction, d: int) -> Tuple[bool, Optional[Fraction]]:
    """Whether q = r^d for rational r; returns (answer, r)."""
    if q == 0:
        return True, Fraction(0)
    neg = q < 0
    if neg and d % 2 == 0:
        return False, None
    aq = abs(q)
    np_root = _int_nth_root(aq.numerator, d)
    dq_root = _int_nth_root(aq.denominator, d)
    if np_root is None or dq_root is None:
        return False, None
    r = Fraction(np_root, dq_root)
    if neg:
        r = -r
    return True, r


def scalar_is_dth_power(c: FieldElement, d: int) -> Tuple[Optional[bool], Optional[FieldElement]]:
    """Decide c in k^(x d); returns (answer, r) with c = r^d when the answer
    is True, and None when undecided.  The answer is False when N_(k/Q)(c),
    taken one level of the tower at a time, is not a d-th power in Q, which
    is sound since c = r^d gives N(c) = N(r)^d; True when c has a rational
    d-th root; and None otherwise.  Over Q the norm is c itself."""
    norm = c
    while not isinstance(norm.field, RationalField):
        norm = etale_norm(norm.field, norm)
    if not rational_is_dth_power(norm.as_rational(), d)[0]:
        return False, None
    try:
        q = c.as_rational()
    except ValueError:
        return None, None
    ok, r = rational_is_dth_power(q, d)
    return (True, c.field.from_rational(r)) if ok else (None, None)


# ---------------------------------------------------------------------------
# decision procedures for diagonal forms


@dataclass(frozen=True)
class DiagonalDecision:
    strongly_multiplicative: bool
    reason: str
    eta: Optional[FieldElement] = None  # with a = eta^d in the positive case


def _diagonal_body(field, coeffs: List[FieldElement], d: int) -> Polynomial:
    n = len(coeffs)
    terms = {}
    for i, a in enumerate(coeffs):
        e = [0] * n
        e[i] = d
        terms[tuple(e)] = a
    return Polynomial(field, n, terms)


def _coerce_coeffs(field, coeffs) -> List[FieldElement]:
    out = []
    for a in coeffs:
        if not isinstance(a, FieldElement):
            a = field.from_rational(a)
        if a.is_zero():
            raise DegenerateInput("diagonal coefficient is zero")
        out.append(a)
    return out


def diagonal_strong_mult_decision(coeffs, d: int, field=QQ) -> DiagonalDecision:
    """A nondegenerate diagonal form is strongly multiplicative exactly when
    it is the single square <1> up to scaling by a d-th power; anything wider
    fails the polynomial d-th power test in the UFD k[X].

    Degree 2 is excluded: binary and higher Pfister quadratics are
    multiplicative without being pure powers, so the argument breaks."""
    if d < 3:
        raise ValueError("degree must be at least 3")
    cs = _coerce_coeffs(field, coeffs)
    n = len(cs)
    if n == 1:
        verdict, eta = scalar_is_dth_power(cs[0], d)
        if verdict is None:
            raise NotImplementedError("d-th power test undecided over this field")
        if verdict:
            return DiagonalDecision(
                True, "one variable with a d-th power coefficient: isometric to <1>", eta
            )
        return DiagonalDecision(
            False, "phi(X) = a X^d with a not a d-th power, so phi(X) is not in k(X)^d"
        )
    body = _diagonal_body(field, cs, d)
    res = is_dth_power(body, d)
    if res is not None:
        raise RuntimeError("diagonal form with >= 2 variables reported as a pure power")
    return DiagonalDecision(
        False,
        "phi(X) (times any scalar) is not a d-th power in k[X], but a "
        "strongly multiplicative diagonal form would force it to be one",
    )


def diagonal_jordan_cubic_decision(coeffs, field=QQ) -> DiagonalDecision:
    """Jordan variant for cubics: phi(X)^2 a cube forces phi(X) a cube."""
    cs = _coerce_coeffs(field, coeffs)
    n = len(cs)
    if n == 1:
        verdict, eta = scalar_is_dth_power(cs[0], 3)
        if verdict is None:
            raise NotImplementedError("cube test undecided over this field")
        if verdict:
            return DiagonalDecision(
                True, "one variable with a cube coefficient: isometric to <1>", eta
            )
        return DiagonalDecision(
            False,
            "a^2 X^6 is a cube in k(X) only when a is a cube in k, which fails here",
        )
    body = _diagonal_body(field, cs, 3)
    res = is_dth_power(body, 3)
    if res is not None:
        raise RuntimeError("diagonal cubic with >= 2 variables reported as a pure power")
    return DiagonalDecision(
        False,
        "phi(X)^2 a cube would force phi(X) = c g(X)^3 (exponents 2 and 3 are "
        "coprime), and the cube test refutes that",
    )


# ---------------------------------------------------------------------------
# Krull-Schmidt obstruction


def krull_schmidt_obstruction(phi: HomogeneousForm) -> ObstructionReport:
    """Dimension-multiset constraints on a hypothetical strong-multiplicativity
    permutation, reduced to a perfect-power test.

    Any witness over K = k(X) permutes the indecomposable components within a
    dimension class; a one-dimensional component <a> mapped to <b> forces
    (a/b) phi(X) to be a d-th power in K, whose polynomial part is testable.
    That test decides every input with a one-dimensional component and at
    least two components: phi(X) = c g(X)^d with phi of degree d makes g a
    linear form l, and then phi = c l^d has a radical of dimension n - 1 >= 1,
    which `krull_schmidt_decompose` has already refused as degenerate.  So
    such an input is always obstructed at `one_dim_power`.
    """
    d = phi.degree
    dec = krull_schmidt_decompose(phi)
    dims = tuple(sorted(c.dim for c in dec.components))
    if len(dec.components) == 1:
        return ObstructionReport(
            verdict="consistent_unknown",
            dims=dims,
            details="single indecomposable component: no dimension-multiset constraint",
        )
    if 1 not in dims:
        return ObstructionReport(
            verdict="consistent_unknown",
            dims=dims,
            details="no one-dimensional component: remaining clauses are not "
            "reducible to perfect-power tests",
        )
    if is_dth_power(phi.body, d) is not None:
        raise RuntimeError("a nondegenerate form with two or more components "
                           "reported as a scalar times a d-th power")
    return ObstructionReport(
        verdict="obstructed",
        dims=dims,
        clause="one_dim_power",
        power_test="phi(X) is not a scalar times a d-th power in k[X]",
        details="a permutation must map the one-dimensional class to itself, "
        "forcing (a_i/a_j) phi(X) into k(X)^%d; the polynomial part already fails" % d,
    )


# ---------------------------------------------------------------------------
# ratios, twists, exponents


def root_of_unity_ratio(f: Polynomial, g: Polynomial, m: int):
    """A scalar eta with f = eta g and eta^m = 1, when f^m = g^m; else None."""
    if m < 1:
        raise ValueError("m must be positive")
    if f.is_zero() and g.is_zero():
        return f.field.one
    if f.is_zero() or g.is_zero():
        return None
    if f**m != g**m:
        return None
    _, fc = f.leading_term()
    _, gc = g.leading_term()
    eta = fc * gc.inv()
    if eta**m != f.field.one:
        return None
    if f != g.scale(eta):
        return None
    return eta


def _is_root_of_unity(mu: FieldElement, limit: int = 24) -> bool:
    acc = mu
    for _ in range(limit):
        if acc == mu.field.one:
            return True
        acc = acc * mu
    return False


def twist_witness(
    phi0: HomogeneousForm, w: ScaledWitness, mu, d: Optional[int] = None
) -> Tuple[HomogeneousForm, ScaledWitness]:
    """From a strong-multiplicativity witness for phi0 and a root of unity mu,
    build phi = mu^(d-1) phi0 with a witness for mu phi(X) phi = phi:
    scalar mu phi(X), matrix mu M(X)."""
    if d is None:
        d = phi0.degree
    if d != phi0.degree:
        raise ValueError("degree mismatch")
    field = phi0.field
    if not isinstance(mu, FieldElement):
        mu = field.from_rational(mu)
    if not _is_root_of_unity(mu):
        raise ValueError("mu must be a root of unity in the coefficient field")
    phi = HomogeneousForm(field, d, phi0.nvars, phi0.body.scale(mu ** (d - 1)))
    mu_rf = RationalFunction.const(field, w.matrix[0][0].num.nvars, mu)
    return phi, _certified(phi, phi.body.scale(mu), _times(mu_rf, w.matrix), "twisted")


def absorb_twist(phi: HomogeneousForm, w: ScaledWitness, eta) -> ScaledWitness:
    """When the twist scalar is eta^d, fold it into the matrix: the witness for
    eta^d phi(X) phi = phi becomes a plain strong-multiplicativity witness with
    matrix M / eta."""
    field = phi.field
    if not isinstance(eta, FieldElement):
        eta = field.from_rational(eta)
    inv_rf = RationalFunction.const(field, w.matrix[0][0].num.nvars, eta.inv())
    return _certified(phi, phi.body, _times(inv_rf, w.matrix), "absorbed")


def odd_degree_strengthen(phi: HomogeneousForm, w) -> ScaledWitness:
    """For odd d, turn an exponent-2 witness into a strong-multiplicativity
    witness by composing with the trivial scalar witness phi(X)^d = phi(X)I:
    with a = (d+1)/2, the matrix M^a / phi(X) carries the scalar
    phi(X)^(2a - d) = phi(X)."""
    d = phi.degree
    if d % 2 == 0:
        raise ValueError("the strengthening needs odd degree")
    m = _as_matrix(w)
    acc = m
    for _ in range((d + 1) // 2 - 1):
        acc = _rf_mat_mul(acc, m)
    inv_phi = RationalFunction.from_poly(phi.body).inv()
    return _certified(phi, phi.body, _times(inv_phi, acc), "strengthened")


def _times(f: RationalFunction, m):
    """The matrix f m."""
    return tuple(tuple(f * entry for entry in row) for row in m)


def _certified(phi: HomogeneousForm, scalar: Polynomial, m, what: str) -> ScaledWitness:
    """The witness of scalar c(X) and matrix m, once `verify_scaled_witness`
    holds it in auto mode; else WitnessInvalid."""
    w = ScaledWitness(scalar=RationalFunction.from_poly(scalar), matrix=m)
    rep = verify_scaled_witness(phi, w, mode="auto")
    if not rep.holds():
        raise WitnessInvalid("%s witness failed verification: %s" % (what, rep.verdict))
    return w


def _rf_mat_mul(a, b):
    """The product of two n x n matrices of rational functions, with the
    products of zero entries skipped.  When the nonzero entries of a share
    one denominator, and those of b another, each entry is one sum of
    numerator products over the product of the two; otherwise the nonzero
    products are added as rational functions.  Both give the entries that
    adding up every product would."""
    n = len(a)
    p = a[0][0].num
    zero = RationalFunction.const(p.field, p.nvars, p.field.zero)
    da, db = _common_denominator(a), _common_denominator(b)
    if da is None or db is None:
        left, right, den = a, b, None
    else:
        left = [[e.num for e in row] for row in a]
        right = [[e.num for e in row] for row in b]
        den = da * db
    nonzero_a = [[l for l, e in enumerate(row) if not e.is_zero()] for row in a]
    nonzero_b = [[not e.is_zero() for e in row] for row in b]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for l in nonzero_a[i]:
                if nonzero_b[l][j]:
                    term = left[i][l] * right[l][j]
                    acc = term if acc is None else acc + term
            if acc is None:
                row.append(zero)
            else:
                row.append(acc if den is None else RationalFunction(acc, den))
        out.append(tuple(row))
    return tuple(out)


def _common_denominator(m):
    """The one denominator of the nonzero entries of m (1 when there are
    none), or None when they have more than one."""
    den = None
    for row in m:
        for e in row:
            if not e.is_zero():
                if den is None:
                    den = e.den
                elif e.den != den:
                    return None
    if den is None:
        p = m[0][0].num
        den = Polynomial.const(p.field, p.nvars, p.field.one)
    return den


def reduce_exponent(d: int, s: int) -> int:
    """The least exponent implied by exponent s in degree d: gcd(s, d)."""
    if d < 1 or s < 1:
        raise ValueError("d and s must be positive")
    return math.gcd(s, d)


def exponent_implies_strong(d: int, s: int) -> bool:
    return reduce_exponent(d, s) == 1


def exponent_chain(d: int, s: int) -> List[Tuple[int, int]]:
    """A certificate [(r, value), ...] descending from s to gcd(s, d) using the
    step s -> r*s - d; found by breadth-first search over residues."""
    target = reduce_exponent(d, s)
    start = s
    if start == target:
        return []
    # One Bezout step r*s - d with r <= d reaches a value congruent to the
    # target mod d, then r = 1 descends by d; so d*s bounds all intermediates.
    window = max(2 * d + max(s, d), d * s)
    prev = {start: None}
    queue = [start]
    while queue:
        v = queue.pop(0)
        for r in range(1, (window + d) // max(v, 1) + 2):
            nxt = r * v - d
            if nxt < 1 or nxt > window or nxt in prev:
                continue
            prev[nxt] = (v, r)
            if nxt == target:
                chain = []
                cur = nxt
                while prev[cur] is not None:
                    pv, pr = prev[cur]
                    chain.append((pr, cur))
                    cur = pv
                return list(reversed(chain))
            queue.append(nxt)
    raise RuntimeError("no reduction chain found within the search window")
