"""JSON wire formats: fields, polynomials, forms, tensors, witnesses, reports.

Encoding is canonical (terms in descending graded-lex order, object keys
sorted) so that emitted JSON re-parses to an identical value.  Scalars are
strings in Fraction syntax ("2/3", "-1"); elements of an extension are lists
of base-field encodings in the power basis.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .coeffield import EtaleAlgebra, FieldElement, QQ, RationalField, field_extend
from .forms import HomogeneousForm, SymmetricTensor
from .poly import Polynomial, RationalFunction
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


def decode_element(field, obj, path="$") -> FieldElement:
    if isinstance(field, RationalField):
        if isinstance(obj, (int, str)):
            try:
                return field.from_rational(Fraction(obj))
            except (ValueError, ZeroDivisionError):
                raise JsonFormatError(path, "not a rational scalar: %r" % (obj,))
        raise JsonFormatError(path, "expected a rational scalar string")
    if isinstance(obj, (int, str)):
        # promote a rational constant into the extension
        try:
            return field.from_rational(Fraction(obj))
        except (ValueError, ZeroDivisionError):
            raise JsonFormatError(path, "not a rational scalar: %r" % (obj,))
    if isinstance(obj, list):
        if len(obj) != field.degree:
            raise JsonFormatError(
                path, "expected %d coordinates, got %d" % (field.degree, len(obj))
            )
        return field.element(
            [
                decode_element(field.base, c, "%s[%d]" % (path, i))
                for i, c in enumerate(obj)
            ]
        )
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
    pairs = []
    for i, t in enumerate(raw_terms):
        tpath = "%s.terms[%d]" % (path, i)
        if not isinstance(t, dict) or "e" not in t or "c" not in t:
            raise JsonFormatError(tpath, "expected {e, c}")
        e = t["e"]
        if (
            not isinstance(e, list)
            or len(e) != nvars
            or not all(_is_count(x) for x in e)
        ):
            raise JsonFormatError(tpath + ".e", "expected %d nonnegative exponents" % nvars)
        pairs.append((tuple(e), decode_element(field, t["c"], tpath + ".c")))
    return Polynomial.from_pairs(field, nvars, pairs)


def encode_rational_function(r: RationalFunction):
    return {"num": encode_polynomial(r.num), "den": encode_polynomial(r.den)}


def decode_rational_function(obj, field, path="$") -> RationalFunction:
    if not isinstance(obj, dict) or "num" not in obj:
        raise JsonFormatError(path, "expected {num, den}")
    num = decode_polynomial(obj["num"], field, path + ".num")
    if "den" in obj:
        den = decode_polynomial(obj["den"], field, path + ".den")
    else:
        den = Polynomial.const(field, num.nvars, field.one)
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


def decode_tensor(obj, path="$") -> SymmetricTensor:
    if not isinstance(obj, dict):
        raise JsonFormatError(path, "expected a tensor object")
    field = decode_field(obj.get("field", "rational"), path + ".field")
    degree = obj.get("degree")
    dim = obj.get("dim")
    if not _is_count(degree) or degree < 1:
        raise JsonFormatError(path + ".degree", "expected a positive integer")
    if not _is_count(dim) or dim < 1:
        raise JsonFormatError(path + ".dim", "expected a positive integer")
    raw = obj.get("entries")
    if not isinstance(raw, list):
        raise JsonFormatError(path + ".entries", "expected a list")
    entries = {}
    for i, t in enumerate(raw):
        tpath = "%s.entries[%d]" % (path, i)
        if not isinstance(t, dict) or "idx" not in t or "c" not in t:
            raise JsonFormatError(tpath, "expected {idx, c}")
        idx = t["idx"]
        if (
            not isinstance(idx, list)
            or len(idx) != degree
            or any(not _is_count(x) or x >= dim for x in idx)
        ):
            raise JsonFormatError(tpath + ".idx", "expected %d indices below %d" % (degree, dim))
        entries[tuple(sorted(idx))] = decode_element(field, t["c"], tpath + ".c")
    try:
        return SymmetricTensor(field, degree, dim, entries)
    except ValueError as exc:
        raise JsonFormatError(path, str(exc))


# ---------------------------------------------------------------------------
# witness payloads


def encode_scaled_witness(w: ScaledWitness):
    return {
        "kind": "scaled",
        "scalar": encode_rational_function(w.scalar),
        "matrix": [[encode_rational_function(e) for e in row] for row in w.matrix],
    }


def decode_scaled_witness(obj, field, path="$") -> ScaledWitness:
    matrix_raw = obj.get("matrix")
    if not isinstance(matrix_raw, list) or not matrix_raw:
        raise JsonFormatError(path + ".matrix", "expected a nonempty matrix")
    rows = []
    for i, row in enumerate(matrix_raw):
        if not isinstance(row, list) or len(row) != len(matrix_raw):
            raise JsonFormatError(path + ".matrix", "matrix must be square")
        rows.append(
            tuple(
                decode_rational_function(e, field, "%s.matrix[%d][%d]" % (path, i, j))
                for j, e in enumerate(row)
            )
        )
    nx = rows[0][0].num.nvars
    if "scalar" in obj:
        scalar = decode_rational_function(obj["scalar"], field, path + ".scalar")
    else:
        scalar = RationalFunction.const(field, nx, field.one)
    return ScaledWitness(scalar=scalar, matrix=tuple(rows))


def encode_structure_matrices(matrices):
    return {
        "kind": "composition",
        "matrices": [
            [[encode_element(c) for c in row] for row in plane] for plane in matrices
        ],
    }


def decode_structure_matrices(obj, field, path="$"):
    raw = obj.get("matrices")
    if not isinstance(raw, list) or not raw:
        raise JsonFormatError(path + ".matrices", "expected structure matrices")
    n = len(raw)
    out = []
    for l, plane in enumerate(raw):
        if not isinstance(plane, list) or len(plane) != n:
            raise JsonFormatError("%s.matrices[%d]" % (path, l), "expected %d rows" % n)
        rows = []
        for i, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != n:
                raise JsonFormatError(
                    "%s.matrices[%d][%d]" % (path, l, i), "expected %d entries" % n
                )
            rows.append(
                tuple(
                    decode_element(field, c, "%s.matrices[%d][%d][%d]" % (path, l, i, j))
                    for j, c in enumerate(row)
                )
            )
        out.append(tuple(rows))
    return tuple(out)


def encode_algebra(alg):
    out = {
        "kind": "algebra",
        "structure": [
            [[encode_element(c) for c in row] for row in plane]
            for plane in alg.structure
        ],
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


def decode_algebra(obj, field, path="$"):
    from .constructions import AlgebraPresentation

    raw = obj.get("structure")
    if not isinstance(raw, list) or not raw:
        raise JsonFormatError(path + ".structure", "expected structure constants")
    n = len(raw)
    structure = []
    for i, plane in enumerate(raw):
        if not isinstance(plane, list) or len(plane) != n:
            raise JsonFormatError("%s.structure[%d]" % (path, i), "expected %d rows" % n)
        rows = []
        for j, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != n:
                raise JsonFormatError(
                    "%s.structure[%d][%d]" % (path, i, j), "expected %d entries" % n
                )
            rows.append(
                [
                    decode_element(field, c, "%s.structure[%d][%d][%d]" % (path, i, j, l))
                    for l, c in enumerate(row)
                ]
            )
        structure.append(rows)
    unit_raw = obj.get("unit")
    if not isinstance(unit_raw, list) or len(unit_raw) != n:
        raise JsonFormatError(path + ".unit", "expected %d coordinates" % n)
    unit = [decode_element(field, c, "%s.unit[%d]" % (path, i)) for i, c in enumerate(unit_raw)]
    involution = None
    if "involution" in obj:
        inv_raw = obj["involution"]
        if not isinstance(inv_raw, list) or len(inv_raw) != n:
            raise JsonFormatError(path + ".involution", "expected an %d x %d matrix" % (n, n))
        involution = [
            [
                decode_element(field, c, "%s.involution[%d][%d]" % (path, i, j))
                for j, c in enumerate(row)
            ]
            for i, row in enumerate(inv_raw)
        ]
    trace = None
    if "trace" in obj:
        trace_raw = obj["trace"]
        if not isinstance(trace_raw, list) or len(trace_raw) != n:
            raise JsonFormatError(path + ".trace", "expected %d coordinates" % n)
        trace = [
            decode_element(field, c, "%s.trace[%d]" % (path, i))
            for i, c in enumerate(trace_raw)
        ]
    norm = decode_form(obj["norm"], path + ".norm") if "norm" in obj else None
    try:
        return AlgebraPresentation(
            field,
            structure,
            unit,
            associative=bool(obj.get("associative", False)),
            involution=involution,
            norm=norm,
            trace=trace,
        )
    except ValueError as exc:
        raise JsonFormatError(path, str(exc))


def decode_witness_payload(obj, field, path="$"):
    """Dispatch on the payload kind: scaled / composition / algebra."""
    if not isinstance(obj, dict):
        raise JsonFormatError(path, "expected a witness object")
    kind = obj.get("kind", "scaled" if "matrix" in obj else None)
    if kind == "scaled":
        return "scaled", decode_scaled_witness(obj, field, path)
    if kind == "composition":
        return "composition", decode_structure_matrices(obj, field, path)
    if kind == "algebra":
        return "algebra", decode_algebra(obj, field, path)
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
        "elapsed_s": round(rep.elapsed_s, 6),
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
        "permutations_checked": rep.permutations_checked,
        "permutations_surviving": rep.permutations_surviving,
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
    return json.dumps(obj, indent=2, sort_keys=True)


def loads_file(path: str):
    """Parse a JSON file; JSONDecodeError propagates with line/column info."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
