"""Reference implementations the tests check the library against.

Nothing in `src/formforge` calls these: each computes something the library
also computes, by an independent and usually slower route (subset sums,
a skew element, a resultant on coordinates it builds by its own products
over an etale algebra, a permutation sum, a subgroup walk, a
division that rebuilds the remainder at every step, an evaluation that
multiplies field elements one at a time, a product by dense structure
constants, linear forms built from the terms dicts, sums, products,
substitution and heap division on {exponent tuple: FieldElement} dicts, a
matrix product that adds up every product of rational functions,
random-mode identities that evaluate every polynomial on its own in field
elements, the random-mode sample loop that draws and checks one point at a
time, univariate polynomial arithmetic over a coefficient field on
lists of field elements (`poly_*`: Euclid's gcd and the extended gcd, for
inverses and squarefree tests in k[t]/(f)), the univariate steps of the
idempotent splitting on monic lists of field elements, and a decomposition that
composes the form once per component and once more to reconstruct it), the
dense JSON shapes of witness matrices and structure constants, which the
decoders still read, and a decoder of the tensors `polarize` writes.
"""

import heapq
import itertools
import random
from fractions import Fraction
from math import factorial, prod

from formforge import (
    HomogeneousForm,
    LinearMap,
    NotDivisible,
    Polynomial,
    SymmetricTensor,
    center_algebra,
    linalg,
    orthogonal_sum,
    polarize,
    primitive_idempotents,
)
from formforge.poly import IdentityReport, clear_denominators
from formforge.constructions import AdmissibleTriple, product_polys
from formforge.coeffield import EtaleAlgebra, integral_coordinates
from formforge.decompose import _column_elements, _element_sort_key, _rational_roots
from formforge.jsonio import (
    decode_element,
    decode_field,
    encode_algebra,
    encode_element,
    encode_rational_function,
)


def leibniz_determinant(rows, zero, one):
    """The determinant as the sum over permutations of signed products."""
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def generic_eval(p: Polynomial, point):
    """p at a point of field elements, by power tables and term-by-term
    products of `FieldElement`s."""
    if len(point) != p.nvars:
        raise ValueError("point has %d coordinates, expected %d" % (len(point), p.nvars))
    maxes = [0] * p.nvars
    for e in p.terms:
        for i, ei in enumerate(e):
            maxes[i] = max(maxes[i], ei)
    powers = []
    for i in range(p.nvars):
        row = [p.field.one]
        for _ in range(maxes[i]):
            row.append(row[-1] * point[i])
        powers.append(row)
    total = p.field.zero
    for e, c in p.terms.items():
        v = c
        for i, ei in enumerate(e):
            if ei:
                v = v * powers[i][ei]
        total = total + v
    return total


def dict_add(p: Polynomial, q: Polynomial, subtract: bool = False) -> Polynomial:
    """p + q (or p - q) term by term on the terms dicts."""
    out = dict(p.terms)
    for e, c in q.terms.items():
        if e in out:
            s = out[e] - c if subtract else out[e] + c
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = -c if subtract else c
    return Polynomial(p.field, p.nvars, out)


def dict_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by the schoolbook double loop over the terms dicts, one
    field-element product per pair of terms."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = c1 * c2
            if e in out:
                s = out[e] + v
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = v
    return Polynomial(p.field, p.nvars, out)


def dict_compose(p: Polynomial, args) -> Polynomial:
    """p with args[i] substituted for variable i, each term built as its own
    polynomial and added to the running sum."""
    if len(args) != p.nvars:
        raise ValueError("need %d substitution arguments" % (p.nvars,))
    field, nvars = (args[0].field, args[0].nvars) if args else (p.field, 0)
    out = Polynomial.zero(field, nvars)
    for e, c in p.terms.items():
        t = Polynomial.const(field, nvars, c)
        for i, ei in enumerate(e):
            for _ in range(ei):
                t = dict_mul(t, args[i])
        out = dict_add(out, t)
    return out


def heap_exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """p / q by the heap division of Monagan & Pearce on the terms dicts, the
    remainder updated in place; NotDivisible when q does not divide p."""
    lt_e, lt_c = max(q.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    lt_inv = lt_c.inv()
    tail = [(e, c) for e, c in q.terms.items() if e != lt_e]
    rem = dict(p.terms)

    def entry(e):
        return (-sum(e), tuple(-x for x in e)), e

    heap = [entry(e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        _, re = heapq.heappop(heap)
        rc = rem.pop(re, None)
        if rc is None:
            continue
        qe = tuple(a - b for a, b in zip(re, lt_e))
        if any(x < 0 for x in qe):
            raise NotDivisible("leading term %r not divisible by %r" % (re, lt_e))
        qc = quot[qe] = rc * lt_inv
        for e, c in tail:
            me = tuple(a + b for a, b in zip(qe, e))
            v = rem.get(me, p.field.zero) - qc * c
            if me not in rem and not v.is_zero():
                heapq.heappush(heap, entry(me))
            if v.is_zero():
                rem.pop(me, None)
            else:
                rem[me] = v
    return Polynomial(p.field, p.nvars, quot)


def long_division(p: Polynomial, q: Polynomial) -> Polynomial:
    """p / q by repeated leading-term subtraction, each step building new
    polynomials; NotDivisible when q does not divide p."""
    rem = p
    quot = Polynomial.zero(p.field, p.nvars)
    lt_e, lt_c = q.leading_term()
    while not rem.is_zero():
        re, rc = rem.leading_term()
        qe = tuple(a - b for a, b in zip(re, lt_e))
        if any(x < 0 for x in qe):
            raise NotDivisible("leading term %r not divisible by %r" % (re, lt_e))
        t = Polynomial(p.field, p.nvars, {qe: rc * lt_c.inv()})
        quot = quot + t
        rem = rem - t * q
    return quot


def rf_mat_mul_all_products(a, b):
    """The product of two square matrices of rational functions, each entry
    the running sum of all n products of entries, zeros included."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for l in range(1, n):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


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


def depolarize_by_elements(theta: SymmetricTensor) -> HomogeneousForm:
    """phi(v) = theta(v, ..., v) from the field-element entries: the
    coefficient of x^e is d!/prod(e_i!) times the entry on e's multiset."""
    d, n = theta.degree, theta.dim
    terms = {}
    for idx, val in theta.entries.items():
        e = [0] * n
        for i in idx:
            e[i] += 1
        scale = Fraction(factorial(d), prod(factorial(m) for m in e))
        terms[tuple(e)] = val * theta.field.from_rational(scale)
    return HomogeneousForm(theta.field, d, n, Polynomial(theta.field, n, terms))


def tensor_product_by_elements(phi1: HomogeneousForm, phi2: HomogeneousForm) -> HomogeneousForm:
    """The product form on the tensor product space from field-element
    products of the two polarizations' entries, entry (a, b) at index
    a n2 + b for every arrangement of b's slots."""
    t1, t2, n2 = polarize(phi1), polarize(phi2), phi2.nvars
    entries = {}
    for a_idx, u in t1.entries.items():
        for b_idx, v in t2.entries.items():
            for perm in set(itertools.permutations(b_idx)):
                entries[tuple(sorted(a * n2 + b for a, b in zip(a_idx, perm)))] = u * v
    return depolarize_by_elements(
        SymmetricTensor(phi1.field, phi1.degree, phi1.nvars * n2, entries))


def _mtnn_product(triple: AdmissibleTriple, x, y):
    """Multiplication of M(T, N, N') on coordinate vectors (alpha, beta, j, j'):
    the (1,1) entry is alpha gamma + T(j, i'), the (1,2) block
    alpha i + delta j + j' x i', and symmetrically."""
    field = triple.field
    mj, mjp = triple.dim_j, triple.dim_jp
    ax, bx, jx, jpx = x[0], x[1], x[2 : 2 + mj], x[2 + mj :]
    ay, by, jy, jpy = y[0], y[1], y[2 : 2 + mj], y[2 + mj :]
    out_a = ax * ay + triple.pair_polys(jx, jpy)
    out_b = bx * by + triple.pair_polys(jy, jpx)
    cross_jp = product_polys(triple.cross_jp, jpx, jpy)
    cross_j = product_polys(triple.cross_j, jx, jy)
    out_j = [
        ax * jy[c] + by * jx[c] + cross_jp[c] for c in range(mj)
    ]
    out_jp = [
        ay * jpx[c] + bx * jpy[c] + cross_j[c] for c in range(mjp)
    ]
    return [out_a, out_b] + out_j + out_jp


def cross_by_solves(triple: AdmissibleTriple, N: HomogeneousForm, transpose: bool):
    """The cross products of `AdmissibleTriple`, one `linalg.solve` of the
    pairing system per pair (a, b); None when a system has no solution."""
    field = triple.field
    theta = polarize(N)
    m = N.nvars
    gram = triple.gram
    if transpose:
        rows = [[gram[c][l] for c in range(triple.dim_j)] for l in range(triple.dim_jp)]
    else:
        rows = [list(gram[l]) for l in range(triple.dim_j)]
    cross = []
    for a in range(m):
        row_out = []
        for b in range(m):
            rhs = [field.from_rational(6) * theta.entry(tuple(sorted((a, b, l))))
                   for l in range(m)]
            sol = linalg.solve(field, [list(r) for r in rows], rhs)
            if sol is None:
                return None
            row_out.append(sol)
        cross.append(tuple(row_out))
    return tuple(cross)


def _bar(x):
    return [x[1], x[0]] + list(x[2:])


def structurable_quartic_via_skew(triple: AdmissibleTriple) -> HomogeneousForm:
    """Independent route to N_A through the skew element s0 = diag(1, -1):
    N_A(x) = (1/12 mu) chi(s0 x, {x, s0 x, x}) with mu = s0^2 = 1 and
    chi read off from psi(u, v) = u bar(v) - v bar(u) being a multiple of s0."""
    field = triple.field
    mj, mjp = triple.dim_j, triple.dim_jp
    big = 2 + mj + mjp
    x = [Polynomial.variable(field, big, i) for i in range(big)]
    zero = Polynomial.zero(field, big)
    one = Polynomial.const(field, big, field.one)
    s0 = [one, -one] + [zero] * (mj + mjp)

    def mul(u, v):
        return _mtnn_product(triple, u, v)

    bar = _bar

    def psi_coefficient(u, v):
        """psi(u, v) = u bar(v) - v bar(u) must equal lambda s0; return lambda."""
        w = [p - q for p, q in zip(mul(u, bar(v)), mul(v, bar(u)))]
        if not (w[0] + w[1]).is_zero():
            raise RuntimeError("psi value is not skew in the diagonal entries")
        for entry in w[2:]:
            if not entry.is_zero():
                raise RuntimeError("psi value has off-diagonal components")
        return w[0]

    s0x = mul(s0, x)
    # {x, y, z} = (x bar y) z + (z bar y) x - (z bar x) y with y = s0 x, z = x
    y = s0x
    xby = mul(x, bar(y))
    xbx = mul(x, bar(x))
    braces = [
        p.scale(field.from_rational(2)) - q
        for p, q in zip(mul(xby, x), mul(xbx, y))
    ]
    # chi(u, v) = (2/mu) lambda where psi(s0 u, v) = lambda s0; here u = s0 x
    lam = psi_coefficient(mul(s0, s0x), braces)
    # N_A = (1/12 mu) chi = (1/6) lambda for mu = 1
    body = lam.scale(field.from_rational(Fraction(1, 6)))
    return HomogeneousForm(field, 4, big, body)


def _a_mul(A: EtaleAlgebra, u, v):
    """Product of two A-valued polynomial vectors (coordinates over A.base)."""
    base = A.base
    m = A.degree
    nv = u[0].nvars
    conv = [Polynomial.zero(base, nv) for _ in range(2 * m - 1)]
    for i in range(m):
        if u[i].is_zero():
            continue
        for j in range(m):
            if v[j].is_zero():
                continue
            conv[i + j] = conv[i + j] + u[i] * v[j]
    for s in range(2 * m - 2, m - 1, -1):
        top = conv[s]
        if top.is_zero():
            continue
        conv[s] = Polynomial.zero(base, nv)
        for i in range(m):
            c = A.minpoly[i]
            if not c.is_zero():
                conv[s - m + i] = conv[s - m + i] - top.scale(c)
    return conv[:m]


def phi0_coordinates(A: EtaleAlgebra, phi0: HomogeneousForm):
    """Coordinates over A.base of phi0(v), v_j = sum_i y_{j m + i} t^i,
    as polynomials in m*n variables, by products of coordinate vectors
    reduced by the minimal polynomial (`forms.coordinates_over_base` composes
    over A instead)."""
    base = A.base
    m = A.degree
    n = phi0.nvars
    big = m * n
    vs = []
    for j in range(n):
        vs.append(
            [Polynomial.variable(base, big, j * m + i) for i in range(m)]
        )
    coords = [Polynomial.zero(base, big) for _ in range(m)]
    for e, c in phi0.body.terms.items():
        acc = None
        for j, ej in enumerate(e):
            for _ in range(ej):
                acc = vs[j] if acc is None else _a_mul(A, acc, vs[j])
        if acc is None:
            acc = [Polynomial.const(base, big, base.one)] + [
                Polynomial.zero(base, big)
            ] * (m - 1)
        cvec = [Polynomial.const(base, big, cc) for cc in c.coeffs]
        acc = _a_mul(A, acc, cvec)
        for s in range(m):
            coords[s] = coords[s] + acc[s]
    return coords


def norm_via_resultant(A: EtaleAlgebra, phi0: HomogeneousForm) -> Polynomial:
    """Transfer route 2: resultant of the minimal polynomial with the
    coordinate polynomial U(t) = sum_s P_s(y) t^s."""
    base = A.base
    m = A.degree
    coords = phi0_coordinates(A, phi0)
    nv = coords[0].nvars
    zero = Polynomial.zero(base, nv)
    e = m - 1  # nominal degree of U
    size = m + e
    f_desc = [Polynomial.const(base, nv, A.minpoly[m - 1 - i]) for i in range(m)]
    f_desc = [Polynomial.const(base, nv, base.one)] + f_desc  # monic leading 1
    u_desc = [coords[e - i] for i in range(e + 1)]
    rows = []
    for r in range(e):
        row = [zero] * size
        for i, c in enumerate(f_desc):
            row[r + i] = c
        rows.append(row)
    for r in range(m):
        row = [zero] * size
        for i, c in enumerate(u_desc):
            row[r + i] = c
        rows.append(row)
    return leibniz_determinant(rows, zero, Polynomial.const(base, nv, base.one))


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


def structure_product(field, structure, x, y):
    """xy for coordinate vectors x, y under e_i e_j = sum_l structure[i][j][l] e_l,
    one field-element product at a time over the dense constants."""
    out = [field.zero] * len(structure)
    ys = [(j, b) for j, b in enumerate(y) if not b.is_zero()]
    for i, a in enumerate(x):
        if a.is_zero():
            continue
        plane = structure[i]
        for j, b in ys:
            ab = None
            for l, c in enumerate(plane[j]):
                if not c.is_zero():
                    if ab is None:
                        ab = a * b
                    out[l] = out[l] + c * ab
    return tuple(out)


def linear_forms_from_terms(N):
    """The entries of N(X) * Y from the terms dicts of N's entries."""
    n = len(N)
    field = N[0][0].field
    y_exps = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
    return [
        Polynomial(
            field,
            N[0][0].nvars + n,
            {e + y_exps[j]: c for j, entry in enumerate(row) for e, c in entry.terms.items()},
        )
        for row in N
    ]


# ---------------------------------------------------------------------------
# random-mode identities, one polynomial at a time


def int_columns(points):
    """A batch of int points as `EvalProgram.at` takes it: one column a
    coordinate."""
    return [[list(c)] for c in zip(*points)]


def vector_columns(points):
    """A batch of points whose coordinates are flat int vectors as
    `EvalProgram.at` takes it: the m columns of each coordinate."""
    return [[list(x) for x in zip(*c)] for c in zip(*points)]


def sample_one_at_a_time(agree, nvars, degree, samples, seed, box_halfwidth):
    """`poly.sample_identity` drawing and checking one point at a time:
    agree(point) gives True, False, or None at a pole, and a pole is drawn
    again, up to 50 * samples draws."""
    if samples < 1:
        raise ValueError("samples must be positive, got %d" % samples)
    if box_halfwidth < 0:
        raise ValueError("box_halfwidth must be nonnegative, got %d" % box_halfwidth)
    rng = random.Random(seed)
    h = box_halfwidth
    report = dict(mode="random", samples=samples, seed=seed, box_halfwidth=h)
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise RuntimeError("could not avoid witness poles while sampling")
        pt = tuple(rng.randrange(-h, h + 1) for _ in range(nvars))
        ok = agree(pt)
        if ok is None:
            continue
        if not ok:
            return IdentityReport(verdict="refuted", counterexample=pt, **report)
        done += 1
    per = min(Fraction(degree, 2 * h + 1), Fraction(1))
    return IdentityReport(verdict="evidence", per_sample_bound=per,
                          overall_bound=per**samples, **report)


# Each returns (agree, nvars, degree) for `sample_one_at_a_time`: the
# identity the engine of `witness` checks, evaluated as the engines did
# before they ran on compiled programs.  Every entry of N(X) Y, every z_l and
# every side is its own polynomial, evaluated by `generic_eval` in field
# elements; degree is the engine's stated bound.


def _at_ints(p: Polynomial, point):
    return generic_eval(p, [p.field.from_rational(x) for x in point])


def scaled_witness_identity(phi: HomogeneousForm, w):
    """num(c) * D(x)^d * phi(y) == den(c) * phi(N(x) y), None at a pole."""
    N, D = clear_denominators(w.matrix)
    nx = D.nvars
    forms = linear_forms_from_terms(N)

    def agree(pt):
        x = pt[:nx]
        cden = _at_ints(w.scalar.den, x)
        if cden.is_zero():
            return None
        dval = _at_ints(D, x)
        if dval.is_zero():
            return None
        lhs = _at_ints(w.scalar.num, x) * dval**phi.degree * _at_ints(phi.body, pt[nx:])
        return lhs == cden * generic_eval(phi.body, [_at_ints(f, pt) for f in forms])

    # the cleared identity P has degree at most max(deg num(c) + d deg D + d,
    # deg den(c) + d (deg N + 1)); the poles are those of Q = den(c) D, and
    # redrawing them costs deg Q more in the numerator of the bound
    d, num, den = phi.degree, w.scalar.num, w.scalar.den
    deg_n = max(e.total_degree() for row in N for e in row)
    deg_p = max(num.total_degree() + d * D.total_degree() + d,
                den.total_degree() + d * (deg_n + 1))
    return agree, nx + phi.nvars, deg_p + den.total_degree() + D.total_degree()


def composition_identity(phi: HomogeneousForm, structure):
    """phi(x) phi(y) == phi(z(x, y)), z_l = sum_ij structure[l][i][j] x_i y_j."""
    n, field = phi.nvars, phi.field
    zpolys = [
        Polynomial.from_pairs(
            field,
            2 * n,
            [
                (tuple(int(k == i) + int(k == n + j) for k in range(2 * n)), structure[l][i][j])
                for i in range(n)
                for j in range(n)
            ],
        )
        for l in range(n)
    ]

    def agree(pt):
        lhs = _at_ints(phi.body, pt[:n]) * _at_ints(phi.body, pt[n:])
        return lhs == generic_eval(phi.body, [_at_ints(z, pt) for z in zpolys])

    return agree, 2 * n, 2 * phi.degree


def jordan_identity(phi: HomogeneousForm, algebra):
    """phi({v w v}) == phi(v)^2 phi(w), with {v w v} = (v w) v for an
    associative presentation and 2 (v.w).v - w.(v.v) for the Jordan product
    x.y = (xy + yx)/2 otherwise, computed at the point by `structure_product`
    on the dense constants."""
    n, field = phi.nvars, phi.field
    planes = algebra.structure
    half = field.from_rational(Fraction(1, 2))
    two = field.from_rational(2)

    def mul(x, y):
        return structure_product(field, planes, x, y)

    def jordan(x, y):
        return [(a + b) * half for a, b in zip(mul(x, y), mul(y, x))]

    def agree(pt):
        v = [field.from_rational(c) for c in pt[:n]]
        w = [field.from_rational(c) for c in pt[n:]]
        if algebra.associative:
            triple = mul(mul(v, w), v)
        else:
            triple = [two * a - b for a, b in zip(jordan(jordan(v, w), v), jordan(w, jordan(v, v)))]
        phi_v = generic_eval(phi.body, v)
        return generic_eval(phi.body, list(triple)) == phi_v * phi_v * generic_eval(phi.body, w)

    return agree, 2 * n, 3 * phi.degree


def jordan_triple_polys(algebra):
    """{v w v} as n polynomials in v then w, from `product_polys` on
    variable vectors: (vw)v for an associative presentation, else
    2(v.w).v - w.(v.v) with x.y = (xy + yx)/2 (the per-product route that
    `verify_jordan_composition` took before it read U_v off the constants)."""
    n, field, t = algebra.dim, algebra.field, algebra.tensor
    v = [Polynomial.variable(field, 2 * n, i) for i in range(n)]
    w = [Polynomial.variable(field, 2 * n, n + i) for i in range(n)]
    if algebra.associative:
        return product_polys(t, product_polys(t, v, w), v)
    half = field.from_rational(Fraction(1, 2))

    def jordan(x, y):
        xy, yx = product_polys(t, x, y), product_polys(t, y, x)
        return [(a + b).scale(half) for a, b in zip(xy, yx)]

    two = field.from_rational(2)
    return [a.scale(two) - b for a, b in zip(jordan(jordan(v, w), v), jordan(w, jordan(v, v)))]


# ---------------------------------------------------------------------------
# univariate polynomials over a coefficient field, as plain coefficient lists
# (low degree first, no trailing zeros)


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


class FieldPolys:
    """The univariate steps of `decompose`'s splitting (Yun's groups, the
    coprime pieces, the squarefree part and the CRT idempotents) on monic
    coefficient lists of field elements, with Euclid's gcd and the extended
    gcd in place of pseudo-remainder sequences."""

    def __init__(self, field):
        self.field = field

    def normalize(self, f):
        f = poly_trim(self.field, list(f))
        return poly_scale(self.field, f, f[-1].inv())

    def derivative(self, f):
        return poly_derivative(self.field, f)

    def gcd(self, f, g):
        return poly_gcd(self.field, f, g)

    def quo(self, f, g):
        return poly_divmod(self.field, f, g)[0]

    def sub(self, f, g):
        return poly_add(self.field, f, poly_scale(self.field, g, -self.field.one))

    @staticmethod
    def rational_roots(f):
        """The rational roots when every coefficient is rational, else none."""
        try:
            ints, _ = integral_coordinates([c.as_rational() for c in f])
        except ValueError:
            return []
        return _rational_roots(ints)

    def linear(self, r: Fraction):
        return [self.field.from_rational(-r), self.field.one]

    def crt_idempotents(self, pieces):
        field = self.field
        sf = pieces[0]
        for p in pieces[1:]:
            sf = poly_mul(field, sf, p)
        out = []
        for piece in pieces:
            h, _ = poly_divmod(field, sf, piece)
            g, u, v = poly_xgcd(field, piece, h)
            if len(g) != 1:
                raise RuntimeError("pieces were not coprime")
            vh = poly_mul(field, poly_scale(field, v, g[0].inv()), h)
            _, vh = poly_divmod(field, vh, sf)
            out.append((vh, 1))
        return out

    def yun_squarefree_groups(self, f):
        f = self.normalize(f)
        out = []
        df = self.derivative(f)
        a = self.gcd(f, df)
        if len(a) <= 1:
            return [f]
        b = self.quo(f, a)
        c = self.quo(df, a)
        d = self.sub(c, self.derivative(b))
        while len(b) > 1:
            g = self.gcd(b, d)
            if len(g) > 1:
                out.append(g)
            b = self.quo(b, g)
            c = self.quo(d, g)
            d = self.sub(c, self.derivative(b))
        return out

    def coprime_pieces(self, mu):
        pieces = []
        for g in self.yun_squarefree_groups(mu):
            rest = g
            for r in self.rational_roots(g):
                lin = self.linear(r)
                rest = self.quo(rest, lin)
                pieces.append(lin)
            if len(rest) > 1:
                pieces.append(rest)
        return pieces

    def squarefree_part(self, f):
        return self.normalize(self.quo(f, self.gcd(f, self.derivative(f))))


def decode_tensor(obj) -> SymmetricTensor:
    """The tensor `jsonio.encode_tensor` wrote, read back: the round-trip
    reference for the JSON `polarize` writes, which formforge never reads."""
    field = decode_field(obj["field"])
    entries = {tuple(t["idx"]): decode_element(field, t["c"]) for t in obj["entries"]}
    return SymmetricTensor(field, obj["degree"], obj["dim"], entries)


def dense_scaled_witness(w):
    """A scaled witness as dense JSON: every entry of the matrix as {num, den}."""
    return {
        "kind": "scaled",
        "scalar": encode_rational_function(w.scalar),
        "matrix": [[encode_rational_function(e) for e in row] for row in w.matrix],
    }


def _dense_constants(planes):
    return [[[encode_element(c) for c in row] for row in plane] for plane in planes]


def dense_structure_matrices(matrices):
    """Structure matrices as dense JSON: every constant, zero or not."""
    return {"kind": "composition", "matrices": _dense_constants(matrices)}


def dense_algebra(alg):
    """An algebra as JSON with dense structure constants."""
    return dict(encode_algebra(alg), structure=_dense_constants(alg.structure))


def _restrict_by_adds(phi: HomogeneousForm, columns) -> HomogeneousForm:
    """phi on the span of the columns: each linear argument built as a sum
    of scaled variables, then one composition."""
    r = len(columns)
    args = []
    for k in range(phi.nvars):
        w = Polynomial.zero(phi.field, r)
        for i, col in enumerate(columns):
            if not col[k].is_zero():
                w = w + Polynomial.variable(phi.field, r, i).scale(col[k])
        args.append(w)
    return HomogeneousForm(phi.field, phi.degree, r, phi.body.compose(args))


def per_component_decomposition(phi: HomogeneousForm):
    """(components, change of basis, idempotents) of the Krull-Schmidt
    decomposition, each component as (dim, basis columns, form): one
    composition phi(P_e y) per component in the canonical order, the
    determinant of P, and a second composition phi(P y) compared with the
    orthogonal sum of the components."""
    field, n = phi.field, phi.nvars
    comps = []
    for e, cols in primitive_idempotents(center_algebra(polarize(phi))):
        cols = [_column_elements(field, col, n) for col in cols]
        comps.append((e, cols, _restrict_by_adds(phi, cols)))
    comps.sort(key=lambda c: (len(c[1]), tuple(
        (e, _element_sort_key(x)) for e, x in c[2].body.sorted_terms())))
    columns = [col for _, cols, _ in comps for col in cols]
    p_rows = [[col[i] for col in columns] for i in range(n)]
    if len(columns) != n or linalg.determinant(field, p_rows).is_zero():
        raise RuntimeError("component bases failed to assemble to a change of basis")
    total = comps[0][2]
    for _, _, form in comps[1:]:
        total = orthogonal_sum(total, form)
    if _restrict_by_adds(phi, columns).body != total.body:
        raise RuntimeError("reconstruction identity failed")
    return ([(len(cols), tuple(cols), form) for _, cols, form in comps],
            LinearMap(field, p_rows), tuple(e for e, _, _ in comps))
