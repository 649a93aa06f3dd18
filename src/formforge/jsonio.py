"""JSON wire formats: fields, polynomials, forms, tensors, witnesses, reports.

Encoding is canonical (terms in descending graded-lex order, object keys
sorted, one line without blanks) so that emitted JSON re-parses to an
identical value and the same value always has the same bytes.  Scalars are
strings in Fraction syntax ("2/3", "-1"); elements of an extension are lists
of base-field encodings in the power basis.  Witness matrices and structure
constants are written sparse, their nonzero entries only.  The dense shapes
of earlier versions are read by rewriting each dense entry to the sparse
item it stands for, with its dense path: one loop per payload kind decodes
both shapes, after checking either's size against the form's dimension.
"""

from __future__ import annotations

import json
import marshal
import math
from fractions import Fraction

from .coeffield import (
    EtaleAlgebra,
    FieldElement,
    QQ,
    RationalField,
    StructureTensor,
    field_extend,
)
from .forms import DimensionMismatch, HomogeneousForm, SymmetricTensor
from .poly import W, Polynomial, RationalFunction, check_degree
from .witness import ScaledWitness


class JsonFormatError(ValueError):
    """Structurally invalid payload; carries the JSON path of the offence."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


# ---------------------------------------------------------------------------
# fields and elements


def encode_field(field):
    if isinstance(field, RationalField):
        return "rational"
    if isinstance(field, EtaleAlgebra):
        return {
            "base": encode_field(field.base),
            "minpoly": [encode_element(c) for c in field.minpoly],
        }
    raise TypeError("cannot encode field %r" % (field,))


def decode_field(obj, path="$.field"):
    if obj == "rational":
        return QQ
    if isinstance(obj, dict):
        base = decode_field(obj.get("base", "rational"), path + ".base")
        raw = obj.get("minpoly")
        if not isinstance(raw, list) or len(raw) < 2:
            raise JsonFormatError(path + ".minpoly", "need monic coefficients c0..cm")
        coeffs = [
            decode_element(base, c, "%s.minpoly[%d]" % (path, i))
            for i, c in enumerate(raw)
        ]
        return field_extend(base, coeffs)
    raise JsonFormatError(path, "expected 'rational' or an extension object")


def encode_element(x: FieldElement):
    if isinstance(x.field, RationalField):
        return str(x.as_rational())
    return [encode_element(c) for c in x.coeffs]


class _NotRational(ValueError):
    """A scalar that is not a rational; the message says how."""


def _rational_parts(obj):
    """(numerator, positive denominator) of a rational scalar, not always in
    lowest terms.  A JSON integer, or a string of ASCII digits with an
    optional leading minus and an optional "/digits", is read directly; any
    other string goes through Fraction, which also takes decimals, exponents
    and surrounding blanks."""
    if obj.__class__ is int:
        return obj, 1
    if obj.__class__ is str:
        num, slash, den = obj.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdecimal() and (
            not slash or (den.isascii() and den.isdecimal() and den.strip("0"))
        ):
            return int(num), int(den) if slash else 1
    if isinstance(obj, (int, str)):
        try:
            q = Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise _NotRational("not a rational scalar: %r" % (obj,))
        return q.numerator, q.denominator
    raise _NotRational("expected a rational scalar string")


def _fraction(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


def decode_element(field, obj, path="$") -> FieldElement:
    """The element an encoding gives; zero is the shared `field.zero`."""
    if isinstance(field, RationalField):
        try:
            num, den = _rational_parts(obj)
        except _NotRational as exc:
            raise JsonFormatError(path, str(exc))
        return FieldElement(field, (_fraction(num, den),)) if num else field.zero
    parts = _flat_parts(field, obj, path)
    if not any(num for num, _ in parts):
        return field.zero
    return field.from_flat([_fraction(num, den) for num, den in parts])


def _flat_parts(field, obj, path: str) -> list:
    """The flat coordinates of an encoded element as (numerator, positive
    denominator) pairs; a rational promotes into an extension."""
    if isinstance(field, RationalField) or isinstance(obj, (int, str)):
        try:
            q = _rational_parts(obj)
        except _NotRational as exc:
            raise JsonFormatError(path, str(exc))
        return [q] + [(0, 1)] * (field.absolute_degree - 1)
    if isinstance(obj, list):
        if len(obj) != field.degree:
            raise JsonFormatError(
                path, "expected %d coordinates, got %d" % (field.degree, len(obj))
            )
        return [
            q for i, c in enumerate(obj) for q in _flat_parts(field.base, c, "%s[%d]" % (path, i))
        ]
    raise JsonFormatError(path, "expected a scalar or coordinate list")


# ---------------------------------------------------------------------------
# polynomials and rational functions


def encode_polynomial(p: Polynomial, with_field: bool = False):
    out = {
        "vars": p.nvars,
        "terms": [
            {"e": list(e), "c": encode_element(c)} for e, c in p.sorted_terms()
        ],
    }
    if with_field:
        out["field"] = encode_field(p.field)
    return out


def _is_count(x) -> bool:
    """A nonnegative JSON integer; true and false are not counts."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def decode_polynomial(obj, field=None, path="$") -> Polynomial:
    if not isinstance(obj, dict):
        raise JsonFormatError(path, "expected a polynomial object")
    if field is None:
        field = decode_field(obj.get("field", "rational"), path + ".field")
    nvars = obj.get("vars")
    if not _is_count(nvars):
        raise JsonFormatError(path + ".vars", "expected a nonnegative integer")
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list):
        raise JsonFormatError(path + ".terms", "expected a list")
    return _decode_packed_polynomial(raw_terms, field, nvars, path)


def _bad_exponents(path: str, i: int, nvars: int) -> JsonFormatError:
    return JsonFormatError("%s.terms[%d].e" % (path, i), "expected %d nonnegative exponents" % nvars)


def _decode_packed_polynomial(raw_terms, field, nvars: int, path: str) -> Polynomial:
    """decode_polynomial straight into the packed integer form: one pass
    checks and packs each exponent list and reads each coefficient's flat
    coordinates.  Exponents pack W bits a variable, as in `Polynomial`, once
    the term's degree is checked against the limit; equal keys add up and
    zero sums are dropped."""
    gen = field.generator_keys()
    G = gen.bits
    rational = isinstance(field, RationalField)
    keys, nums, dens = [], [], []
    for i, t in enumerate(raw_terms):
        if not isinstance(t, dict) or "e" not in t or "c" not in t:
            raise JsonFormatError("%s.terms[%d]" % (path, i), "expected {e, c}")
        e = t["e"]
        if not isinstance(e, list) or len(e) != nvars:
            raise _bad_exponents(path, i, nvars)
        k = 0
        for x in e:
            if (x.__class__ is not int and not _is_count(x)) or x < 0:
                raise _bad_exponents(path, i, nvars)
            k = (k << W) | x
        degree = sum(e)
        check_degree(degree)
        k |= degree << (nvars * W)
        if rational:
            try:
                num, den = _rational_parts(t["c"])
            except _NotRational as exc:
                raise JsonFormatError("%s.terms[%d].c" % (path, i), str(exc))
            keys.append(k)
            nums.append(num)
            dens.append(den)
        else:
            # a key, numerator and denominator a flat coordinate
            for g, (num, den) in zip(gen.keys, _flat_parts(
                    field, t["c"], "%s.terms[%d].c" % (path, i))):
                keys.append((k << G) | g)
                nums.append(num)
                dens.append(den)
    L = math.lcm(*dens)
    acc = {}
    get = acc.get
    for k, num, den in zip(keys, nums, dens):
        acc[k] = get(k, 0) + num * (L // den)
    acc = {k: c for k, c in acc.items() if c}
    if not acc:
        return Polynomial.zero(field, nvars)
    return Polynomial._from_nums(field, nvars, acc, L)


def encode_rational_function(r: RationalFunction):
    return {"num": encode_polynomial(r.num), "den": encode_polynomial(r.den)}


class _Dens:
    """The dens of one witness.  A den whose JSON is that of the den decoded
    last is that same `Polynomial`: the test compares the parsed JSON with ==
    and then by `_exact`, which tells 1, 1.0 and true apart."""

    def __init__(self, field):
        self.field = field
        self.raw = self.exact = self.poly = None

    def get(self, raw, path: str) -> Polynomial:
        if not (raw == self.raw and _exact(raw) == self.exact):
            self.poly = decode_polynomial(raw, self.field, path)
            self.raw, self.exact = raw, _exact(raw)
        return self.poly


_NO_DEN = object()


def decode_rational_function(obj, field, path="$", dens=None) -> RationalFunction:
    """num/den from {num, den}; a den left out is 1.  The checks and the
    sharing are `_rational`'s."""
    if not isinstance(obj, dict) or "num" not in obj:
        raise JsonFormatError(path, "expected {num, den}")
    return _rational(field, obj["num"], path + ".num", obj.get("den", _NO_DEN),
                     path + ".den", None, None, dens or _Dens(field))


def _rational(field, num_raw, num_at: str, den_raw, den_at: str, nvars, like,
              dens) -> RationalFunction:
    """num/den from their JSON, decoded at num_at and den_at; den_raw
    `_NO_DEN` is 1.  With nvars, num must have nvars variables, as `like`
    has; den must have those of num.  `dens` shares equal dens across the
    entries of one witness."""
    num = decode_polynomial(num_raw, field, num_at)
    _check_vars(num, nvars, num_at, like)
    if den_raw is _NO_DEN:
        return RationalFunction.from_poly(num)
    den = dens.get(den_raw, den_at)
    _check_vars(den, num.nvars, den_at, num_at)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# forms and tensors


def encode_form(phi: HomogeneousForm):
    return {
        "field": encode_field(phi.field),
        "degree": phi.degree,
        "vars": phi.nvars,
        "body": encode_polynomial(phi.body),
    }


def decode_form(obj, path="$") -> HomogeneousForm:
    if not isinstance(obj, dict):
        raise JsonFormatError(path, "expected a form object")
    field = decode_field(obj.get("field", "rational"), path + ".field")
    degree = obj.get("degree")
    if not _is_count(degree) or degree < 1:
        raise JsonFormatError(path + ".degree", "expected a positive integer")
    body = decode_polynomial(obj.get("body"), field, path + ".body")
    nvars = obj.get("vars", body.nvars)
    if not _is_count(nvars) or nvars != body.nvars:
        raise JsonFormatError(path + ".vars", "disagrees with the body")
    try:
        return HomogeneousForm(field, degree, nvars, body)
    except ValueError as exc:
        raise JsonFormatError(path, str(exc))


def encode_tensor(theta: SymmetricTensor):
    entries = sorted(theta.entries.items())
    return {
        "degree": theta.degree,
        "dim": theta.dim,
        "field": encode_field(theta.field),
        "entries": [
            {"idx": list(idx), "c": encode_element(c)} for idx, c in entries
        ],
    }


# ---------------------------------------------------------------------------
# witness payloads


def encode_scaled_witness(w: ScaledWitness):
    """{kind, n, scalar, entries}: the nonzero entries of the matrix as
    [i, j, num, den], or as [i, j, num] under a top-level den that every
    one of them has."""
    entries = [(i, j, e) for i, row in enumerate(w.matrix) for j, e in enumerate(row)
               if not e.is_zero()]
    out = {"kind": "scaled", "n": w.dim, "scalar": encode_rational_function(w.scalar)}
    den = entries[0][2].den if entries else None
    if den is not None and all(e.den is den or e.den == den for _, _, e in entries):
        out["den"] = encode_polynomial(den)
        out["entries"] = [[i, j, encode_polynomial(e.num)] for i, j, e in entries]
    else:
        out["entries"] = [[i, j, encode_polynomial(e.num), encode_polynomial(e.den)]
                          for i, j, e in entries]
    return out


def decode_scaled_witness(obj, field, path="$", *, n: int) -> ScaledWitness:
    """A scaled witness, sparse ({n, entries}) or dense ({matrix}), that must
    be n x n, n the form's dimension, before anything is decoded.  One loop
    decodes the entries of both shapes, as items that keep their own paths.
    Every num of the matrix has the `vars` of the first entry's num, and
    every den, the scalar's too, those of its num.  The zero entries and
    those left out are one shared zero in the variables of the first
    entry's num, else of the top-level den, else of the scalar; an entry
    whose JSON is that of the first zero entry is not decoded again."""
    _check_object(obj, path)
    den_raw = _NO_DEN
    if "entries" in obj:
        _dimension(obj.get("n"), path + ".n", n, "witness matrix must be {0} x {0}")
        raw = obj["entries"]
        if not isinstance(raw, list):
            raise JsonFormatError(path + ".entries", "expected a list")
        den_raw = obj.get("den", _NO_DEN)
        items = _sparse_entries(raw, path, n, den_raw)
    else:
        raw = obj.get("matrix")
        if not isinstance(raw, list) or not raw:
            raise JsonFormatError(path + ".matrix", "expected a nonempty matrix")
        _dimension(len(raw), path + ".matrix", n, "witness matrix must be {0} x {0}")
        items = _dense_entries(raw, path, n)
    dens = _Dens(field)
    scalar = None
    if "scalar" in obj:
        scalar = decode_rational_function(obj["scalar"], field, path + ".scalar", dens=dens)
    top = None if den_raw is _NO_DEN else dens.get(den_raw, path + ".den")
    nvars = first = zero = zero_raw = zero_exact = None
    rows = [[None] * n for _ in range(n)]
    for i, j, key, num, num_at, den, den_at in items:
        if zero is not None and key == zero_raw and _exact(key) == zero_exact:
            continue
        r = _rational(field, num, num_at, den, den_at, nvars, first, dens)
        if nvars is None:
            nvars, first = r.num.nvars, num_at
        if not r.is_zero():
            rows[i][j] = r
        elif zero is None:
            zero, zero_raw, zero_exact = r, key, _exact(key)
    if nvars is None:
        if top is not None:
            nvars = top.nvars
        elif scalar is not None:
            nvars = scalar.num.nvars
        else:
            raise JsonFormatError(path, "expected an entry, a den or a scalar")
    if zero is None:
        zero = RationalFunction.from_poly(Polynomial.zero(field, nvars))
    if scalar is None:
        scalar = RationalFunction.const(field, nvars, field.one)
    return ScaledWitness(scalar=scalar, matrix=tuple(
        tuple(zero if r is None else r for r in row) for row in rows))


def _sparse_entries(raw, path: str, n: int, den):
    """The entries [i, j, num, den] as items (i, j, JSON that tells equal
    entries, num, its path, den, its path); an entry [i, j, num] has the
    top-level den, `_NO_DEN` when there is none."""
    seen = set()
    for k, e in enumerate(raw):
        at = "%s.entries[%d]" % (path, k)
        if not isinstance(e, list) or len(e) not in (3, 4):
            raise JsonFormatError(at, "expected [i, j, num, den]")
        i, j = _indices(e, 2, n, at, seen)
        own = (e[3], at + "[3]") if len(e) == 4 else (den, path + ".den")
        yield (i, j, e[2:], e[2], at + "[2]") + own


def _dense_entries(raw, path: str, n: int):
    """The {num, den} entries of a dense matrix as the items of the sparse
    entries [i, j, num, den], with their dense paths; a den left out is 1."""
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise JsonFormatError(path + ".matrix", "matrix must be square")
        for j, e in enumerate(row):
            at = "%s.matrix[%d][%d]" % (path, i, j)
            if not isinstance(e, dict) or "num" not in e:
                raise JsonFormatError(at, "expected {num, den}")
            yield i, j, e, e["num"], at + ".num", e.get("den", _NO_DEN), at + ".den"


def _dimension(size, at: str, n: int, mismatch: str) -> None:
    """A payload's size, its `n` or its number of rows or planes, must be a
    positive integer, and n: else DimensionMismatch(mismatch.format(n))."""
    if not _is_count(size) or size < 1:
        raise JsonFormatError(at, "expected a positive integer")
    if size != n:
        raise DimensionMismatch(mismatch.format(n))


def _indices(t, count: int, n: int, at: str, seen: set) -> tuple:
    """The first `count` items of the list t, indices below n that no entry
    before has had (`seen`)."""
    for k, x in enumerate(t[:count]):
        if x.__class__ is not int or not 0 <= x < n:
            raise JsonFormatError("%s[%d]" % (at, k), "expected an index below %d" % n)
    idx = tuple(t[:count])
    if idx in seen:
        raise JsonFormatError(at, "repeats the position %s" % (list(idx),))
    seen.add(idx)
    return idx


def _check_object(obj, path: str) -> None:
    if not isinstance(obj, dict):
        raise JsonFormatError(path, "expected a witness object")


def _exact(obj) -> bytes:
    """Parsed JSON as bytes that tell 1, 1.0 and true apart, which == does
    not; two values from one parse that are == have equal bytes exactly when
    they have the same types and key order."""
    return marshal.dumps(obj, 2)


def _check_vars(p: Polynomial, nvars, where: str, like: str) -> None:
    if nvars is not None and p.nvars != nvars:
        raise JsonFormatError(where + ".vars", "expected %d, as in %s" % (nvars, like))


def _encode_constants(n: int, constants):
    """{n, constants}: the pairs ((a, b, c), x) of nonzero constants as
    [a, b, c, x]."""
    return {"n": n, "constants": [[a, b, c, encode_element(x)] for (a, b, c), x in constants]}


def _decode_constants(raw, field, at: str, n: int, mismatch: str, what: str) -> list:
    """The listed constants of raw, at `at`, as ((a, b, c), element) pairs,
    of which some may be `field.zero`.  raw is sparse, {n, constants} of
    [a, b, c, x] items, or dense, n planes x[a][b][c] whose constants keep
    their dense paths and whose "0"s go unlisted, as in the sparse shape.
    Its size must be n before anything is decoded."""
    if isinstance(raw, dict):
        _dimension(raw.get("n"), at + ".n", n, mismatch)
        consts = raw.get("constants")
        if not isinstance(consts, list):
            raise JsonFormatError(at + ".constants", "expected a list")
        items = _sparse_constants(consts, at, n)
    else:
        if not isinstance(raw, list) or not raw:
            raise JsonFormatError(at, what)
        _dimension(len(raw), at, n, mismatch)
        items = _dense_constants(raw, at, n)
    return [(idx, decode_element(field, x, x_at)) for idx, x, x_at in items]


def _sparse_constants(raw, at: str, n: int):
    seen = set()
    for k, t in enumerate(raw):
        t_at = "%s.constants[%d]" % (at, k)
        if not isinstance(t, list) or len(t) != 4:
            raise JsonFormatError(t_at, "expected three indices and a constant")
        yield _indices(t, 3, n, t_at, seen), t[3], t_at + "[3]"


def _dense_constants(raw, at: str, n: int):
    for a, plane in enumerate(raw):
        if not isinstance(plane, list) or len(plane) != n:
            raise JsonFormatError("%s[%d]" % (at, a), "expected %d rows" % n)
        for b, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != n:
                raise JsonFormatError("%s[%d][%d]" % (at, a, b), "expected %d entries" % n)
            for c, x in enumerate(row):
                if x != "0":
                    yield (a, b, c), x, "%s[%d][%d][%d]" % (at, a, b, c)


def encode_structure_matrices(matrices):
    """{kind, matrices}: the nonzero constants matrices[l][i][j] as
    [l, i, j, c]."""
    constants = [
        ((l, i, j), c)
        for l, plane in enumerate(matrices)
        for i, row in enumerate(plane)
        for j, c in enumerate(row)
        if c
    ]
    return {"kind": "composition", "matrices": _encode_constants(len(matrices), constants)}


def decode_structure_matrices(obj, field, path="$", *, n: int):
    """n structure matrices of n x n, from sparse ({n, constants}) or dense (a
    list of planes) constants, as `_decode_constants` reads them; a constant
    left out is the shared `field.zero`."""
    _check_object(obj, path)
    constants = _decode_constants(obj.get("matrices"), field, path + ".matrices", n,
                                  "need one structure matrix per coordinate",
                                  "expected structure matrices")
    zero = field.zero
    planes = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (l, i, j), c in constants:
        planes[l][i][j] = c
    return tuple(tuple(map(tuple, plane)) for plane in planes)


def encode_algebra(alg):
    out = {
        "kind": "algebra",
        "structure": _encode_constants(alg.dim, alg.tensor.constants()),
        "unit": [encode_element(c) for c in alg.unit],
        "associative": alg.associative,
    }
    if alg.involution is not None:
        out["involution"] = [[encode_element(c) for c in row] for row in alg.involution]
    if alg.trace is not None:
        out["trace"] = [encode_element(c) for c in alg.trace]
    if alg.norm is not None:
        out["norm"] = encode_form(alg.norm)
    return out


def decode_algebra(obj, field, path="$", *, n: int):
    """An n-dimensional algebra, its structure constants sparse ({n,
    constants}) or dense (a list of planes), as `_decode_constants` reads
    them; the tensor is built from the nonzero ones."""
    from .constructions import AlgebraPresentation

    _check_object(obj, path)
    constants = _decode_constants(obj.get("structure"), field, path + ".structure", n,
                                  "presentation dimension does not match the form",
                                  "expected structure constants")
    structure = StructureTensor.from_constants(field, n, [t for t in constants if t[1]])
    unit = _coordinates(field, obj.get("unit"), path + ".unit", n)
    involution = None
    if "involution" in obj:
        inv_raw = obj["involution"]
        if not isinstance(inv_raw, list) or len(inv_raw) != n:
            raise JsonFormatError(path + ".involution", "expected an %d x %d matrix" % (n, n))
        involution = [_coordinates(field, row, "%s.involution[%d]" % (path, i), n)
                      for i, row in enumerate(inv_raw)]
    trace = _coordinates(field, obj["trace"], path + ".trace", n) if "trace" in obj else None
    norm = decode_form(obj["norm"], path + ".norm") if "norm" in obj else None
    associative = obj.get("associative", False)
    if not isinstance(associative, bool):
        raise JsonFormatError(path + ".associative", "expected true or false")
    try:
        return AlgebraPresentation(
            field,
            structure,
            unit,
            associative=associative,
            involution=involution,
            norm=norm,
            trace=trace,
        )
    except ValueError as exc:
        raise JsonFormatError(path, str(exc))


def _coordinates(field, raw, at: str, n: int) -> list:
    """The n field elements a list of encodings at `at` gives."""
    if not isinstance(raw, list) or len(raw) != n:
        raise JsonFormatError(at, "expected %d coordinates" % n)
    return [decode_element(field, c, "%s[%d]" % (at, i)) for i, c in enumerate(raw)]


def decode_witness_payload(obj, field, path="$", *, n: int):
    """Dispatch on the payload kind: scaled / composition / algebra; n, the
    form's dimension, is passed on to the decoder."""
    _check_object(obj, path)
    kind = obj.get("kind", "scaled" if "matrix" in obj or "entries" in obj else None)
    if kind == "scaled":
        return "scaled", decode_scaled_witness(obj, field, path, n=n)
    if kind == "composition":
        return "composition", decode_structure_matrices(obj, field, path, n=n)
    if kind == "algebra":
        return "algebra", decode_algebra(obj, field, path, n=n)
    raise JsonFormatError(path + ".kind", "expected scaled, composition, or algebra")


# ---------------------------------------------------------------------------
# constructed forms and reports


def encode_constructed_form(cf):
    out = {"form": encode_form(cf.form), "provenance": cf.provenance}
    if cf.witness is not None:
        out["witness"] = encode_scaled_witness(cf.witness)
    if cf.composition is not None:
        out["composition"] = encode_structure_matrices(cf.composition)
    if cf.algebra is not None:
        out["algebra"] = encode_algebra(cf.algebra)
    if cf.unit is not None:
        out["unit"] = [encode_element(c) for c in cf.unit]
    return out


def encode_verification_report(rep):
    out = {
        "verdict": rep.verdict,
        "mode": rep.mode,
        "identity": rep.identity,
    }
    if rep.samples is not None:
        out["samples"] = rep.samples
    if rep.seed is not None:
        out["seed"] = rep.seed
    if rep.box_halfwidth is not None:
        out["box_halfwidth"] = rep.box_halfwidth
    if rep.counterexample is not None:
        out["counterexample"] = list(rep.counterexample)
    if rep.per_sample_bound is not None:
        out["per_sample_bound"] = str(rep.per_sample_bound)
    if rep.overall_bound is not None:
        out["overall_bound"] = str(rep.overall_bound)
    if rep.notes:
        out["notes"] = rep.notes
    return out


def encode_obstruction_report(rep):
    out = {
        "verdict": rep.verdict,
        "dims": list(rep.dims),
        "details": rep.details,
    }
    if rep.clause is not None:
        out["clause"] = rep.clause
    if rep.power_test:
        out["power_test"] = rep.power_test
    return out


def encode_decomposition(dec):
    return {
        "components": [
            {
                "dim": comp.dim,
                "form": encode_form(comp.form),
                "columns": [
                    [encode_element(c) for c in col] for col in comp.basis_columns
                ],
            }
            for comp in dec.components
        ],
        "change_of_basis": [
            [encode_element(c) for c in row] for row in dec.change_of_basis.rows
        ],
    }


def dumps(obj) -> str:
    """One line: sorted keys, no blanks.  `python -m json.tool` indents it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads_file(path: str):
    """Parse a JSON file; JSONDecodeError propagates with line/column info."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
