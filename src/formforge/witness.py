"""Witness verification, obstruction procedures, and exponent calculus.

A scaled witness is a scalar c(X) and a matrix M(X) of rational functions
certifying c(X) * phi(Y) = phi(M(X) Y) over k(X).  Verification clears
denominators and compares polynomials, either symbolically (a proof) or by
exact evaluation at random points (evidence with a stated bound).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .coeffield import FieldElement, QQ
from .decompose import DegenerateInput, krull_schmidt_decompose
from .forms import DimensionMismatch, HomogeneousForm
from .poly import (
    DEFAULT_BOX_HALFWIDTH,
    DEFAULT_TERM_BUDGET,
    Polynomial,
    RationalFunction,
    TermBudgetExceeded,
    clear_denominators,
    compose_estimate,
    is_dth_power,
    linear_forms,
    ring_matrix_determinant,
    sample_identity,
    substitute_linear,
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
    permutations_checked: int = 0
    permutations_surviving: int = 0
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


def _check_identity(
    t0: float,
    identity: str,
    estimate: int,
    build: Callable[[], Tuple[Polynomial, Polynomial]],
    agree: Callable[[Tuple[int, ...]], Optional[bool]],
    nvars: int,
    degree: int,
    mode: str,
    samples: int,
    seed: Optional[int],
    box_halfwidth: int,
    budget: int,
) -> VerificationReport:
    """The one identity check behind every verify_* engine.

    An engine states its identity lhs == rhs: `build` expands both sides for a
    symbolic proof, `agree` compares them at one point of the nvars sample
    variables (None at a pole), and `degree` bounds their total degree.  The
    mode is resolved against the estimate of the symbolic expansion."""
    use_mode, use_seed, note = _resolve_mode(mode, estimate, budget, seed)
    if use_mode == "symbolic":
        rep = verify_identity(*build(), mode="symbolic")
    else:
        rep = sample_identity(agree, nvars, degree, samples, use_seed, box_halfwidth)
    return VerificationReport(
        identity=identity,
        elapsed_s=time.perf_counter() - t0,
        notes=note,
        **{f.name: getattr(rep, f.name) for f in fields(rep)},
    )


# ---------------------------------------------------------------------------
# scaled witnesses


def _matrix_invertible(phi: HomogeneousForm, w: ScaledWitness, N, D: Polynomial) -> None:
    """Prove det M(X) is not identically zero, or raise SingularWitness.

    With N = D * M, one exact nonzero value of det N(x) at an integer point x
    proves nonvanishing; the symbolic determinant is the fallback when sampled
    points keep landing on zeros of det M or of D.
    """
    field = phi.field
    nx = D.nvars
    rng = random.Random(1)
    points = [(1,) * nx]
    bound = 3
    for i in range(40):
        points.append(tuple(rng.randint(-bound, bound) for _ in range(nx)))
        if i % 8 == 7:
            bound *= 2
    for pt in points:
        if D.eval_int(pt).is_zero():
            continue
        rows = [[field.zero if p.is_zero() else p.eval_int(pt) for p in row] for row in N]
        if not linalg.determinant(field, rows).is_zero():
            return
    det = ring_matrix_determinant(
        [list(row) for row in w.matrix],
        RationalFunction.from_poly(Polynomial.zero(field, nx)),
    )
    if det.is_zero():
        raise SingularWitness("witness matrix has identically zero determinant")


def _estimate_scaled(phi: HomogeneousForm, w: ScaledWitness, D: Polynomial) -> int:
    n = phi.nvars
    fake_args = []
    for i in range(n):
        t = 0
        for j in range(n):
            entry = w.matrix[i][j]
            if not entry.is_zero():
                t += len(entry.num.terms) * max(1, len(D.terms))
        fake_args.append(max(1, t))
    total = 0
    for e in phi.body.terms:
        t = 1
        for i, ei in enumerate(e):
            t *= fake_args[i] ** ei
            if t > 10**15:
                return 10**15
        total += t
        if total > 10**15:
            return 10**15
    lhs = len(w.scalar.num.terms) * max(1, len(D.terms)) ** phi.degree * len(phi.body.terms)
    return max(total, min(lhs, 10**15))


def verify_scaled_witness(
    phi: HomogeneousForm,
    w: ScaledWitness,
    mode: str = "auto",
    samples: int = 100,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
    budget: Optional[int] = None,
) -> VerificationReport:
    """Check num(c) * den(M)^d * phi(Y) = den(c) * phi_cleared(M Y)."""
    t0 = time.perf_counter()
    n = phi.nvars
    if w.dim != n or any(len(row) != n for row in w.matrix):
        raise DimensionMismatch("witness matrix must be %d x %d" % (n, n))
    budget = term_budget() if budget is None else budget
    # N = D * M over the common denominator D of the matrix entries
    N, D = clear_denominators(w.matrix)
    nx = D.nvars
    _matrix_invertible(phi, w, N, D)

    identity = "num(c) * den(M)^%d * phi(Y) == den(c) * phi_cleared(M Y)" % phi.degree
    estimate = _estimate_scaled(phi, w, D)

    def build():
        q, _ = substitute_linear(phi.body, w.matrix)
        big = nx + n
        lhs = (
            w.scalar.num.embed(big, 0)
            * (D**phi.degree).embed(big, 0)
            * phi.body.embed(big, nx)
        )
        return lhs, w.scalar.den.embed(big, 0) * q

    # At a sample (x, y) the poles of c and M are the points with
    # den(c)(x) = 0 or D(x) = 0; elsewhere phi(N(x) y) is phi_cleared(M Y).
    forms = None  # N(X) Y, in the X then Y variables; symbolic mode never reads it

    def agree(pt):
        nonlocal forms
        if forms is None:
            forms = linear_forms(N)
        x = pt[:nx]
        cden = w.scalar.den.eval_int(x)
        if cden.is_zero():
            return None
        dval = D.eval_int(x)
        if dval.is_zero():
            return None
        lhs = w.scalar.num.eval_int(x) * dval**phi.degree * phi.body.eval_int(pt[nx:])
        return lhs == cden * phi.body.eval([f.eval_int(pt) for f in forms])

    deg_bound = (
        phi.degree * (max((e.den.total_degree() for row in w.matrix for e in row), default=0) + 1)
        + w.scalar.num.total_degree()
        + w.scalar.den.total_degree()
        + phi.degree
        + max(e.num.total_degree() for row in w.matrix for e in row) * phi.degree
    )
    return _check_identity(
        t0, identity, estimate, build, agree, nx + n, max(deg_bound, 1),
        mode, samples, seed, box_halfwidth, budget,
    )


def _as_matrix(phi: HomogeneousForm, witness) -> Tuple[Tuple[RationalFunction, ...], ...]:
    if isinstance(witness, ScaledWitness):
        return witness.matrix
    return tuple(tuple(row) for row in witness)


def _phi_of_x(phi: HomogeneousForm) -> RationalFunction:
    return RationalFunction.from_poly(phi.body)


def verify_strong_multiplicativity(phi, witness, **kw) -> VerificationReport:
    """c(X) = phi(X): the witness certifies phi(X) * phi = phi over k(X)."""
    w = ScaledWitness(scalar=_phi_of_x(phi), matrix=_as_matrix(phi, witness))
    return verify_scaled_witness(phi, w, **kw)


def verify_strong_jordan_multiplicativity(phi, witness, **kw) -> VerificationReport:
    w = ScaledWitness(scalar=_phi_of_x(phi) ** 2, matrix=_as_matrix(phi, witness))
    return verify_scaled_witness(phi, w, **kw)


def verify_exponent(phi, witness, s: int, **kw) -> VerificationReport:
    if s < 1:
        raise ValueError("exponent must be positive")
    w = ScaledWitness(scalar=_phi_of_x(phi) ** s, matrix=_as_matrix(phi, witness))
    return verify_scaled_witness(phi, w, **kw)


def verify_similarity(phi, witness, scalar, **kw) -> VerificationReport:
    """Constant scalar a: certifies a * phi = phi composed with M."""
    if not isinstance(scalar, FieldElement):
        scalar = phi.field.from_rational(scalar)
    m = _as_matrix(phi, witness)
    nx = m[0][0].num.nvars
    w = ScaledWitness(scalar=RationalFunction.const(phi.field, nx, scalar), matrix=m)
    return verify_scaled_witness(phi, w, **kw)


def verify_mu_twist(phi, witness, mu, s: int = 1, **kw) -> VerificationReport:
    """c(X) = mu * phi(X)^s."""
    if not isinstance(mu, FieldElement):
        mu = phi.field.from_rational(mu)
    scalar = RationalFunction.from_poly((phi.body**s).scale(mu))
    w = ScaledWitness(scalar=scalar, matrix=_as_matrix(phi, witness))
    return verify_scaled_witness(phi, w, **kw)


# ---------------------------------------------------------------------------
# composition and Jordan composition


def verify_composition(
    phi: HomogeneousForm,
    structure: Sequence[Sequence[Sequence[FieldElement]]],
    mode: str = "auto",
    samples: int = 100,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
    budget: Optional[int] = None,
) -> VerificationReport:
    """phi(x) phi(y) = phi(z(x, y)) for the bilinear z given by structure
    matrices: z_l = sum_ij structure[l][i][j] x_i y_j."""
    t0 = time.perf_counter()
    n = phi.nvars
    field = phi.field
    budget = term_budget() if budget is None else budget
    if len(structure) != n:
        raise DimensionMismatch("need one structure matrix per coordinate")
    big = 2 * n
    zpolys = []
    for l in range(n):
        terms = {}
        for i in range(n):
            for j in range(n):
                c = structure[l][i][j]
                if not isinstance(c, FieldElement):
                    c = field.from_rational(c)
                if c.is_zero():
                    continue
                e = [0] * big
                e[i] += 1
                e[n + j] += 1
                terms[tuple(e)] = terms.get(tuple(e), field.zero) + c
        zpolys.append(Polynomial(field, big, terms))

    identity = "phi(x) * phi(y) == phi(z(x, y))"
    estimate = compose_estimate(phi.body, zpolys)

    def build():
        return phi.body.embed(big, 0) * phi.body.embed(big, n), phi.body.compose(zpolys)

    def agree(pt):
        z = [zp.eval_int(pt) for zp in zpolys]
        return phi.body.eval_int(pt[:n]) * phi.body.eval_int(pt[n:]) == phi.body.eval(z)

    return _check_identity(
        t0, identity, estimate, build, agree, big, 2 * phi.degree,
        mode, samples, seed, box_halfwidth, budget,
    )


def verify_jordan_composition(
    phi: HomogeneousForm,
    algebra,
    mode: str = "auto",
    samples: int = 100,
    seed: Optional[int] = None,
    box_halfwidth: int = DEFAULT_BOX_HALFWIDTH,
    budget: Optional[int] = None,
) -> VerificationReport:
    """phi({v w v}) = phi(v)^2 phi(w), with {v w v} from the presentation:
    v(wv) when the product is associative, else the U-operator
    2(v.w).v - w.(v.v) of the Jordan product x.y = (xy + yx)/2, which is
    v(wv) again in an alternative algebra.  Requires phi(unit) = 1
    (UnitMismatch otherwise)."""
    t0 = time.perf_counter()
    n = phi.nvars
    field = phi.field
    budget = term_budget() if budget is None else budget
    if algebra.dim != n:
        raise DimensionMismatch("presentation dimension does not match the form")
    unit_val = phi.body.eval(list(algebra.unit))
    if unit_val != field.one:
        raise UnitMismatch("phi(1) = %r, expected 1" % (unit_val,))

    big = 2 * n
    v = [Polynomial.variable(field, big, i) for i in range(n)]
    w = [Polynomial.variable(field, big, n + i) for i in range(n)]
    if algebra.associative:
        vw = algebra.product_polys(v, w)
        triple = algebra.product_polys(vw, v)
    else:
        jordan = _jordan_product(algebra)
        vw = jordan(v, w)
        vv = jordan(v, v)
        two = field.from_rational(2)
        first = [p.scale(two) for p in jordan(vw, v)]
        second = jordan(w, vv)
        triple = [a - b for a, b in zip(first, second)]

    identity = "phi({v w v}) == phi(v)^2 * phi(w)"
    estimate = compose_estimate(phi.body, triple)

    def build():
        return phi.body.compose(triple), (phi.body.embed(big, 0) ** 2) * phi.body.embed(big, n)

    def agree(pt):
        lhs = phi.body.eval([tp.eval_int(pt) for tp in triple])
        return lhs == phi.body.eval_int(pt[:n]) ** 2 * phi.body.eval_int(pt[n:])

    return _check_identity(
        t0, identity, estimate, build, agree, big, 3 * phi.degree,
        mode, samples, seed, box_halfwidth, budget,
    )


def _jordan_product(algebra):
    """x.y = (xy + yx)/2 on coordinate polynomials."""
    half = algebra.field.from_rational(Fraction(1, 2))

    def product(x, y):
        xy = algebra.product_polys(x, y)
        return [(a + b).scale(half) for a, b in zip(xy, algebra.product_polys(y, x))]

    return product


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
    """Decide c in k^(x d).  None = undecided (non-rational extension element)."""
    try:
        q = c.as_rational()
    except ValueError:
        return None, None
    ok, r = rational_is_dth_power(q, d)
    if not ok:
        return False, None
    return True, c.field.from_rational(r)


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
    permutation, reduced to perfect-power tests.

    Any witness over K = k(X) permutes the indecomposable components within a
    dimension class; a one-dimensional component <a> mapped to <b> forces
    (a/b) phi(X) to be a d-th power in K, whose polynomial part is testable.
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
    ones = [c for c in dec.components if c.dim == 1]
    if not ones:
        return ObstructionReport(
            verdict="consistent_unknown",
            dims=dims,
            details="no one-dimensional component: remaining clauses are not "
            "reducible to perfect-power tests",
        )
    scalars = []
    for c in ones:
        ((e, a),) = c.form.body.terms.items()
        scalars.append(a)

    res = is_dth_power(phi.body, d)
    if res is None:
        return ObstructionReport(
            verdict="obstructed",
            dims=dims,
            clause="one_dim_power",
            power_test="phi(X) is not a scalar times a d-th power in k[X]",
            details="a permutation must map the one-dimensional class to itself, "
            "forcing (a_i/a_j) phi(X) into k(X)^%d; the polynomial part already fails" % d,
        )
    c_scalar, _root = res
    if len(ones) > 6:
        return ObstructionReport(
            verdict="consistent_unknown",
            dims=dims,
            power_test="phi(X) = c g^d with c = %r" % (c_scalar,),
            details="one-dimensional class too large to enumerate",
        )
    checked = 0
    surviving = 0
    undecided = False
    for perm in itertools.permutations(range(len(ones))):
        checked += 1
        ok = True
        for i, pi in enumerate(perm):
            ratio = c_scalar * scalars[i] * scalars[pi].inv()
            verdict, _ = scalar_is_dth_power(ratio, d)
            if verdict is None:
                undecided = True
            if verdict is False:
                ok = False
                break
        if ok:
            surviving += 1
    if surviving == 0 and not undecided:
        return ObstructionReport(
            verdict="obstructed",
            dims=dims,
            clause="one_dim_scalar_permutation",
            power_test="phi(X) = c g^d with c = %r" % (c_scalar,),
            permutations_checked=checked,
            permutations_surviving=0,
            details="no permutation of the one-dimensional components makes all "
            "forced scalars d-th powers in k",
        )
    return ObstructionReport(
        verdict="consistent_unknown",
        dims=dims,
        power_test="phi(X) = c g^d with c = %r" % (c_scalar,),
        permutations_checked=checked,
        permutations_surviving=surviving,
        details="some permutation remains consistent with the perfect-power constraints",
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
    nx = w.matrix[0][0].num.nvars
    mu_rf = RationalFunction.const(field, nx, mu)
    new_matrix = tuple(tuple(mu_rf * entry for entry in row) for row in w.matrix)
    new_scalar = RationalFunction.from_poly(phi.body.scale(mu))
    tw = ScaledWitness(scalar=new_scalar, matrix=new_matrix)
    rep = verify_scaled_witness(phi, tw, mode="auto")
    if not rep.holds():
        raise WitnessInvalid("twisted witness failed verification: %s" % rep.verdict)
    return phi, tw


def absorb_twist(phi: HomogeneousForm, w: ScaledWitness, eta) -> ScaledWitness:
    """When the twist scalar is eta^d, fold it into the matrix: the witness for
    eta^d phi(X) phi = phi becomes a plain strong-multiplicativity witness with
    matrix M / eta."""
    field = phi.field
    if not isinstance(eta, FieldElement):
        eta = field.from_rational(eta)
    nx = w.matrix[0][0].num.nvars
    inv_rf = RationalFunction.const(field, nx, eta.inv())
    new_matrix = tuple(tuple(inv_rf * entry for entry in row) for row in w.matrix)
    out = ScaledWitness(scalar=RationalFunction.from_poly(phi.body), matrix=new_matrix)
    rep = verify_scaled_witness(phi, out, mode="auto")
    if not rep.holds():
        raise WitnessInvalid("absorbed witness failed verification: %s" % rep.verdict)
    return out


def odd_degree_strengthen(phi: HomogeneousForm, w) -> ScaledWitness:
    """For odd d, turn an exponent-2 witness into a strong-multiplicativity
    witness by composing with the trivial scalar witness phi(X)^d = phi(X)I:
    with a = (d+1)/2, the matrix M^a / phi(X) carries the scalar
    phi(X)^(2a - d) = phi(X)."""
    d = phi.degree
    if d % 2 == 0:
        raise ValueError("the strengthening needs odd degree")
    m = _as_matrix(phi, w)
    a = (d + 1) // 2
    acc = m
    for _ in range(a - 1):
        acc = _rf_mat_mul(acc, m)
    inv_phi = RationalFunction.from_poly(phi.body).inv()
    new_matrix = tuple(tuple(inv_phi * entry for entry in row) for row in acc)
    out = ScaledWitness(scalar=RationalFunction.from_poly(phi.body), matrix=new_matrix)
    rep = verify_scaled_witness(phi, out, mode="auto")
    if not rep.holds():
        raise WitnessInvalid("strengthened witness failed verification: %s" % rep.verdict)
    return out


def _rf_mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for l in range(n):
                term = a[i][l] * b[l][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


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


def brute_force_exponent_closure(d: int, s: int) -> int:
    """Oracle: the subgroup of Z/dZ generated by s, reported as its least
    positive element (d itself when s = 0 mod d)."""
    seen = {0, s % d}
    frontier = [s % d]
    while frontier:
        v = frontier.pop()
        w = (v + s) % d
        if w not in seen:
            seen.add(w)
            frontier.append(w)
    positives = [x for x in seen if x > 0]
    return min(positives) if positives else d
