import json
import random
from fractions import Fraction

import pytest

from formforge import (
    DimensionMismatch,
    HomogeneousForm,
    NotSquarefree,
    Polynomial,
    QQ,
    RationalFunction,
    ScaledWitness,
    catalog,
    det_norm,
    field_extend,
    polarize,
    scaled_block_sum,
    tits_cubic,
    verify_scaled_witness,
    krull_schmidt_decompose,
    krull_schmidt_obstruction,
    matrix_algebra,
    split_octonion_algebra,
    verify_composition,
)
from formforge import jsonio
from formforge import witness as W
from formforge.coeffield import StructureTensor
from formforge.jsonio import (
    JsonFormatError,
    decode_algebra,
    decode_element,
    decode_field,
    decode_form,
    decode_polynomial,
    decode_rational_function,
    decode_scaled_witness,
    decode_structure_matrices,
    decode_witness_payload,
    dumps,
    encode_algebra,
    encode_constructed_form,
    encode_decomposition,
    encode_field,
    encode_form,
    encode_obstruction_report,
    encode_polynomial,
    encode_rational_function,
    encode_scaled_witness,
    encode_structure_matrices,
    encode_tensor,
    encode_verification_report,
)
from oracles import decode_tensor, dense_algebra, dense_scaled_witness, dense_structure_matrices


def var(n, i):
    return Polynomial.variable(QQ, n, i)


def const(n, c):
    return Polynomial.const(QQ, n, c)


def diag(coeffs, d):
    n = len(coeffs)
    pairs = [
        (tuple(d if j == i else 0 for j in range(n)), c)
        for i, c in enumerate(coeffs)
    ]
    return HomogeneousForm.from_body(d, Polynomial.from_pairs(QQ, n, pairs))


def rebuild(obj):
    return json.loads(dumps(obj))


def test_field_round_trip():
    for field in (
        QQ,
        field_extend(QQ, [-5, 0, 1]),
        field_extend(
            field_extend(QQ, [1, 1, 1]),
            [
                field_extend(QQ, [1, 1, 1]).from_rational(-2),
                field_extend(QQ, [1, 1, 1]).zero,
                field_extend(QQ, [1, 1, 1]).zero,
                field_extend(QQ, [1, 1, 1]).one,
            ],
        ),
    ):
        assert decode_field(rebuild(encode_field(field))) == field


def test_decoded_fields_are_interned(monkeypatch):
    """Two decodes of one field JSON give the same field, whose squarefree
    test runs once; a minimal polynomial that is not squarefree raises on
    every decode."""
    calls = []
    rank = StructureTensor.trace_form_rank
    monkeypatch.setattr(StructureTensor, "trace_form_rank",
                        lambda self, basis: calls.append(1) or rank(self, basis))
    obj = {"base": {"minpoly": ["-1", "1", "1"]}, "minpoly": [["-7", "1"], "0", "0", "1"]}
    field = decode_field(obj)
    assert decode_field(json.loads(json.dumps(obj))) is field
    assert len(calls) == 2  # the base's test and the tower's
    for _ in range(2):
        with pytest.raises(NotSquarefree):
            decode_field({"minpoly": ["49", "-14", "1"]})
    assert len(calls) == 4


def test_polynomial_round_trip():
    p = (
        var(3, 0) ** 2 * var(3, 1)
        - const(3, Fraction(7, 3)) * var(3, 2) ** 3
        + var(3, 0) * var(3, 1) * var(3, 2)
    )
    obj = rebuild(encode_polynomial(p))
    assert decode_polynomial(obj, QQ) == p


def test_polynomial_round_trip_over_extension():
    A = field_extend(QQ, [-2, 0, 1])
    p = Polynomial.from_pairs(A, 2, [((1, 1), A.element([1, 3])), ((2, 0), A.one)])
    obj = rebuild(encode_polynomial(p, with_field=True))
    assert decode_polynomial(obj) == p


def test_polynomial_encoding_is_canonical():
    p = var(2, 0) * var(2, 1) + var(2, 1) ** 2
    q = var(2, 1) ** 2 + var(2, 1) * var(2, 0)
    assert dumps(encode_polynomial(p)) == dumps(encode_polynomial(q))


def test_rational_function_round_trip():
    r = RationalFunction(var(2, 0) ** 2 - var(2, 1) ** 2, var(2, 0) + var(2, 1))
    obj = rebuild(encode_rational_function(r))
    assert decode_rational_function(obj, QQ) == r


def test_rational_function_default_denominator():
    obj = {"num": rebuild(encode_polynomial(var(1, 0)))}
    r = decode_rational_function(obj, QQ)
    assert r == RationalFunction.from_poly(var(1, 0))


def test_form_round_trip():
    phi = diag([1, -2, Fraction(3, 4)], 3)
    assert decode_form(rebuild(encode_form(phi))) == phi


def test_tensor_round_trip():
    theta = polarize(diag([1, 2], 4))
    assert decode_tensor(rebuild(encode_tensor(theta))) == theta


def test_scaled_witness_round_trip_still_verifies():
    cf = tits_cubic(2)
    obj = rebuild(encode_scaled_witness(cf.witness))
    w = decode_scaled_witness(obj, QQ, n=cf.form.nvars)
    assert verify_scaled_witness(cf.form, w).verdict == "proved"


def test_structure_matrices_round_trip():
    cf = tits_cubic(1)
    obj = rebuild(encode_structure_matrices(cf.composition))
    matrices = decode_structure_matrices(obj, QQ, n=cf.form.nvars)
    assert verify_composition(cf.form, matrices).verdict == "proved"


def test_witness_payload_dispatch():
    cf = tits_cubic(1)
    kind, payload = decode_witness_payload(
        rebuild(encode_scaled_witness(cf.witness)), QQ, n=cf.form.nvars
    )
    assert kind == "scaled"
    kind, payload = decode_witness_payload(
        rebuild(encode_structure_matrices(cf.composition)), QQ, n=cf.form.nvars
    )
    assert kind == "composition"


def test_constructed_form_payload():
    cf = tits_cubic(2)
    obj = rebuild(encode_constructed_form(cf))
    assert obj["provenance"]["kind"] == "tits-cubic"
    assert decode_form(obj["form"]) == cf.form
    assert "witness" in obj and "composition" in obj


def test_verification_report_payload():
    cf = tits_cubic(1)
    rep = verify_scaled_witness(cf.form, cf.witness)
    obj = rebuild(encode_verification_report(rep))
    assert obj["verdict"] == "proved"
    assert obj["mode"] == "symbolic"
    assert "identity" in obj


def test_obstruction_report_payload():
    rep = krull_schmidt_obstruction(diag([1, 1], 3))
    obj = rebuild(encode_obstruction_report(rep))
    assert obj["verdict"] == "obstructed"
    assert obj["dims"] == [1, 1]
    assert sorted(obj) == ["clause", "details", "dims", "power_test", "verdict"]


def test_decomposition_payload():
    dec = krull_schmidt_decompose(diag([1, 2, 3], 3))
    obj = rebuild(encode_decomposition(dec))
    assert [c["dim"] for c in obj["components"]] == [1, 1, 1]
    assert len(obj["change_of_basis"]) == 3
    for comp in obj["components"]:
        assert decode_form(comp["form"]).degree == 3


def test_dumps_is_deterministic():
    cf = tits_cubic(2)
    assert dumps(encode_constructed_form(cf)) == dumps(encode_constructed_form(cf))


@pytest.mark.parametrize(
    "obj, path",
    [
        ({"vars": True, "terms": [{"e": [1], "c": "1"}]}, "$.vars"),
        ({"vars": 1, "terms": [{"e": [True], "c": "1"}]}, "$.terms[0].e"),
    ],
)
def test_polynomial_rejects_bool_counts(obj, path):
    with pytest.raises(JsonFormatError) as exc:
        decode_polynomial(obj, QQ)
    assert exc.value.path == path


_CUBE = {"vars": 1, "terms": [{"e": [3], "c": "1"}]}


@pytest.mark.parametrize(
    "decode, obj, path",
    [
        (decode_form, {"degree": True, "body": {"vars": 1, "terms": [{"e": [1], "c": "1"}]}},
         "$.degree"),
        (decode_form, {"degree": 3, "vars": True, "body": _CUBE}, "$.vars"),
    ],
)
def test_form_and_tensor_reject_bool_counts(decode, obj, path):
    with pytest.raises(JsonFormatError) as exc:
        decode(obj)
    assert exc.value.path == path


def test_format_errors_carry_paths():
    with pytest.raises(JsonFormatError) as exc:
        decode_form({"degree": 3})
    assert exc.value.path
    with pytest.raises(JsonFormatError):
        decode_field({"base": "rational"})
    with pytest.raises(JsonFormatError):
        decode_polynomial({"vars": 2, "terms": [{"e": [1], "c": "1"}]}, QQ)
    with pytest.raises(JsonFormatError):
        decode_scaled_witness({"kind": "scaled", "matrix": [[{"num": 1}], []]}, QQ, n=2)


@pytest.mark.parametrize(
    "flag", ["false", "true", None, [], 0, 1],
    ids=["string-false", "string-true", "null", "list", "zero", "one"],
)
def test_algebra_associative_flag_must_be_a_boolean(flag):
    obj = rebuild(encode_algebra(split_octonion_algebra()))
    obj["associative"] = flag
    with pytest.raises(JsonFormatError) as exc:
        decode_algebra(obj, QQ, n=8)
    assert exc.value.path == "$.associative"


def test_algebra_involution_rows_must_have_n_coordinates():
    """A short involution row is malformed input at its path, as a short
    unit or trace is (it used to raise IndexError in the presentation)."""
    obj = rebuild(encode_algebra(split_octonion_algebra()))
    obj["involution"][2].pop()
    with pytest.raises(JsonFormatError) as exc:
        decode_algebra(obj, QQ, n=8)
    assert str(exc.value) == "$.involution[2]: expected 8 coordinates"


def test_algebra_associative_flag_defaults_to_false():
    obj = rebuild(encode_algebra(split_octonion_algebra()))
    del obj["associative"]
    assert decode_algebra(obj, QQ, n=8).associative is False
    obj = rebuild(encode_algebra(matrix_algebra(2)))
    assert obj["associative"] is True
    assert decode_algebra(obj, QQ, n=4).associative is True


_SCALAR_SPELLINGS = [
    lambda q: str(q),                       # "-7/3", "5"
    lambda q: q.numerator if q.denominator == 1 else str(q),  # a JSON integer
    lambda q: "%d/%d" % (q.numerator * 2, q.denominator * 2),  # not in lowest terms
    lambda q: " %s " % q,                   # blanks, read by Fraction
    lambda q: "+%s" % q if q >= 0 else str(q),
    lambda q: "%se0" % q if q.denominator == 1 else str(q),  # an exponent
]


@pytest.mark.parametrize("seed", range(40))
def test_rational_polynomial_decodes_into_the_constructor_form(seed):
    """Over Q the decoder packs terms itself.  Its result equals the
    polynomial the constructor builds from the same terms, with the same
    integer form, whatever the spelling of the coefficients, with repeated
    exponents that add up (to zero, too) and degrees that grow as the terms
    go on."""
    rng = random.Random(seed)
    n = rng.randrange(0, 4)
    pairs, raw = [], []
    for _ in range(rng.randrange(0, 9)):
        top = rng.choice((1, 3, 7, 20))
        e = [rng.randrange(0, top + 1) for _ in range(n)]
        q = Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 12)))
        pairs.append((tuple(e), q))
        raw.append({"e": e, "c": rng.choice(_SCALAR_SPELLINGS)(q)})
        if pairs and rng.random() < 0.3:  # the same monomial again
            e0, q0 = rng.choice(pairs)
            q1 = -q0 if rng.random() < 0.5 else Fraction(1, 5)
            pairs.append((e0, q1))
            raw.append({"e": list(e0), "c": str(q1)})
    got = decode_polynomial({"vars": n, "terms": raw}, QQ)
    want = Polynomial.from_pairs(QQ, n, pairs)
    assert got == want
    assert (got._nums, got._den) == (want._nums, want._den)


@pytest.mark.parametrize(
    "c, path, message",
    [
        ("x", "$.terms[1].c", "not a rational scalar: 'x'"),
        ("1/0", "$.terms[1].c", "not a rational scalar: '1/0'"),
        ("1/-2", "$.terms[1].c", "not a rational scalar: '1/-2'"),
        ("", "$.terms[1].c", "not a rational scalar: ''"),
        (1.5, "$.terms[1].c", "expected a rational scalar string"),
        (None, "$.terms[1].c", "expected a rational scalar string"),
    ],
)
def test_rational_coefficient_errors_keep_their_paths(c, path, message):
    obj = {"vars": 1, "terms": [{"e": [1], "c": "2"}, {"e": [0], "c": c}]}
    with pytest.raises(JsonFormatError) as exc:
        decode_polynomial(obj, QQ)
    assert exc.value.path == path
    assert str(exc.value) == "%s: %s" % (path, message)


@pytest.mark.parametrize("e", [[-1, 0], ["1", 0], [1.0, 0], [0], [0, 1, 2], "11"])
def test_rational_exponent_errors_keep_their_paths(e):
    obj = {"vars": 2, "terms": [{"e": [1, 1], "c": "2"}, {"e": e, "c": "1"}]}
    with pytest.raises(JsonFormatError) as exc:
        decode_polynomial(obj, QQ)
    assert str(exc.value) == "$.terms[1].e: expected 2 nonnegative exponents"


_SQRT2 = field_extend(QQ, [-2, 0, 1])
_DECODE_FIELDS = [
    _SQRT2,
    field_extend(QQ, [-2, 0, 0, 1]),
    field_extend(_SQRT2, [-2, 0, 0, 1]),
    field_extend(QQ, [Fraction(-1, 2), 0, 1]),
]


def _encoded(field, q, rng):
    """An encoding of the flat coordinates q: a coordinate list, nested for
    a tower, or a bare scalar when only the first coordinate is nonzero."""
    if not any(q[1:]) and rng.random() < 0.5:
        return rng.choice(_SCALAR_SPELLINGS)(q[0])
    if field.base != QQ:
        mb = field.base.absolute_degree
        return [_encoded(field.base, q[k : k + mb], rng) for k in range(0, len(q), mb)]
    return [rng.choice(_SCALAR_SPELLINGS)(c) for c in q]


@pytest.mark.parametrize("seed", range(24))
def test_etale_polynomial_decodes_into_the_constructor_form(seed):
    """Over an etale field the decoder packs the flat coordinates of every
    coefficient itself: the same value and integer form as the constructor
    gives the decoded elements, for coordinate lists,
    nested lists over a tower, rational scalars and repeated exponents."""
    rng = random.Random(seed)
    field = _DECODE_FIELDS[seed % len(_DECODE_FIELDS)]
    m = field.absolute_degree
    n = rng.randrange(0, 4)
    pairs, raw = [], []
    for _ in range(rng.randrange(0, 7)):
        e = [rng.randrange(0, rng.choice((1, 3, 9)) + 1) for _ in range(n)]
        q = [Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3))) if rng.random() < 0.6
             else Fraction(0) for _ in range(m)]
        if pairs and rng.random() < 0.3:  # the same monomial again, cancelling
            e, q0 = rng.choice(pairs)
            e, q = list(e), field.flat(-q0)
        pairs.append((tuple(e), field.from_flat(q)))
        raw.append({"e": e, "c": _encoded(field, q, rng)})
    got = decode_polynomial({"vars": n, "terms": raw}, field)
    want = Polynomial.from_pairs(field, n, pairs)
    assert got == want and got.terms == want.terms
    assert (got._nums, got._den) == (want._nums, want._den)


@pytest.mark.parametrize(
    "field, c, path, message",
    [
        (_SQRT2, ["1"], "$.terms[1].c", "expected 2 coordinates, got 1"),
        (_SQRT2, ["1", "x"], "$.terms[1].c[1]", "not a rational scalar: 'x'"),
        (_SQRT2, ["1", [1, 2]], "$.terms[1].c[1]", "expected a rational scalar string"),
        (_SQRT2, {"c": 1}, "$.terms[1].c", "expected a scalar or coordinate list"),
        (_SQRT2, "1/0", "$.terms[1].c", "not a rational scalar: '1/0'"),
        (_DECODE_FIELDS[2], [["1", "2"], "3", ["4", None]], "$.terms[1].c[2][1]",
         "expected a rational scalar string"),
        (_DECODE_FIELDS[2], [["1", "2"], ["3"], "4"], "$.terms[1].c[1]",
         "expected 2 coordinates, got 1"),
    ],
)
def test_etale_coefficient_errors_keep_their_paths(field, c, path, message):
    obj = {"vars": 1, "terms": [{"e": [1], "c": "2"}, {"e": [0], "c": c}]}
    with pytest.raises(JsonFormatError) as exc:
        decode_polynomial(obj, field)
    assert exc.value.path == path
    assert str(exc.value) == "%s: %s" % (path, message)
    with pytest.raises(JsonFormatError) as exc:
        decode_element(field, c, "$.c")
    assert exc.value.path == "$.c" + path[len("$.terms[1].c"):]


def test_structure_matrix_zeros_are_shared_and_every_entry_is_checked():
    """A zero structure constant decodes to the field's shared zero, which
    verify_composition skips by identity; every entry is still read, so a
    bad one after the zeros keeps its path and message."""
    obj = rebuild(dense_structure_matrices(det_norm(3).composition))
    mats = decode_structure_matrices(obj, QQ, n=9)
    entries = [c for plane in mats for row in plane for c in row]
    zeros = [c for c in entries if c.is_zero()]
    assert zeros and all(c is QQ.zero for c in zeros)
    assert len(zeros) == len([c for plane in obj["matrices"] for row in plane for c in row
                              if c == "0"])
    obj["matrices"][8][8][8] = "0/0"
    with pytest.raises(JsonFormatError) as exc:
        decode_structure_matrices(obj, QQ, n=9)
    assert str(exc.value) == "$.matrices[8][8][8]: not a rational scalar: '0/0'"
    k = field_extend(QQ, [-2, 0, 1])
    assert decode_structure_matrices({"matrices": [[["0"]]]}, k, n=1)[0][0][0] is k.zero
    with pytest.raises(JsonFormatError) as exc:
        decode_structure_matrices({"matrices": [[[["0"]]]]}, k, n=1)
    assert str(exc.value) == "$.matrices[0][0][0]: expected 2 coordinates, got 1"


def _dense_det2(kind):
    """det-2's witness, structure matrices or algebra as parsed dense JSON."""
    cf = det_norm(2)
    if kind == "witness":
        return rebuild(dense_scaled_witness(cf.witness))
    if kind == "matrices":
        return rebuild(dense_structure_matrices(cf.composition))
    return rebuild(dense_algebra(cf.algebra))


def _edit(key, *where, value=None):
    """An edit of obj[key][where...]: set it to value, or drop the last
    item of the list there when value is None."""
    def edit(obj):
        target = obj[key]
        for k in where[:-1]:
            target = target[k]
        if value is None:
            target[where[-1]].pop()
        else:
            target[where[-1]] = value
    return edit


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("witness", _edit("matrix", 1), "$.matrix: matrix must be square"),
        ("witness", _edit("matrix", 3, value="row"), "$.matrix: matrix must be square"),
        ("witness", _edit("matrix", 2, 3, value=[]), "$.matrix[2][3]: expected {num, den}"),
        ("witness", lambda obj: obj.update(matrix=[]), "$.matrix: expected a nonempty matrix"),
        ("matrices", _edit("matrices", 1), "$.matrices[1]: expected 4 rows"),
        ("matrices", _edit("matrices", 3, value={}), "$.matrices[3]: expected 4 rows"),
        ("matrices", _edit("matrices", 1, 2), "$.matrices[1][2]: expected 4 entries"),
        ("matrices", _edit("matrices", 0, 3, value="0"), "$.matrices[0][3]: expected 4 entries"),
        ("matrices", _edit("matrices", 2, 1, 3, value="x"),
         "$.matrices[2][1][3]: not a rational scalar: 'x'"),
        ("matrices", lambda obj: obj.update(matrices=[]),
         "$.matrices: expected structure matrices"),
        ("algebra", _edit("structure", 1), "$.structure[1]: expected 4 rows"),
        ("algebra", _edit("structure", 2, 0), "$.structure[2][0]: expected 4 entries"),
        ("algebra", _edit("structure", 1, 2, 3, value="1/0"),
         "$.structure[1][2][3]: not a rational scalar: '1/0'"),
        ("algebra", _edit("structure", 3, 3, 0, value=[1]),
         "$.structure[3][3][0]: expected a rational scalar string"),
        ("algebra", lambda obj: obj.update(structure="x"),
         "$.structure: expected structure constants"),
    ],
)
def test_dense_shape_errors_keep_their_paths(kind, edit, message):
    """A ragged row or plane, a malformed entry and a bad constant of a dense
    payload report their dense path and message."""
    obj = _dense_det2(kind)
    edit(obj)
    decode = {"witness": decode_scaled_witness, "matrices": decode_structure_matrices,
              "algebra": decode_algebra}[kind]
    with pytest.raises(JsonFormatError) as exc:
        decode(obj, QQ, n=4)
    assert str(exc.value) == message


def _det3_witness():
    """det-3's witness as parsed JSON, with the positions of its last zero
    entry and its last nonzero entry: both come after an entry with the
    same JSON (54 of the 81 entries are zero, every den is 1)."""
    obj = rebuild(dense_scaled_witness(det_norm(3).witness))
    m = obj["matrix"]
    zeros = [(i, j) for i, row in enumerate(m) for j, e in enumerate(row) if not e["num"]["terms"]]
    nonzero = [(i, j) for i, row in enumerate(m) for j, e in enumerate(row) if e["num"]["terms"]]
    return obj, zeros[-1], nonzero[-1]


def test_witness_zeros_and_denominators_are_shared():
    obj, _, _ = _det3_witness()
    w = decode_scaled_witness(obj, QQ, n=9)
    entries = [e for row in w.matrix for e in row]
    zeros = [e for e in entries if e.is_zero()]
    assert len(zeros) == 54 and all(e is zeros[0] for e in zeros)
    assert len({id(e.den) for e in entries if not e.is_zero()} | {id(w.scalar.den)}) == 1
    assert verify_scaled_witness(det_norm(3).form, w).verdict == "proved"


def _set(part, key, value):
    """Set e[part][key], or e[part] itself when key is None."""
    def edit(e):
        if key is None:
            e[part] = value
        else:
            e[part][key] = value
    return edit


def _set_den_term(key, value):
    def edit(e):
        e["den"]["terms"][0][key] = value
    return edit


def _set_den_exponent(value):
    def edit(e):
        e["den"]["terms"][0]["e"][0] = value
    return edit


def _constant_in_8_vars(part):
    return _set(part, None, {"vars": 8, "terms": [{"e": [0] * 8, "c": "1"}]})


@pytest.mark.parametrize(
    "entry, edit, suffix, message",
    [
        ("zero", _set("num", "vars", 9.0), ".num.vars", "expected a nonnegative integer"),
        ("zero", _set_den_exponent(False), ".den.terms[0].e", "expected 9 nonnegative exponents"),
        ("zero", _set_den_exponent(0.0), ".den.terms[0].e", "expected 9 nonnegative exponents"),
        ("zero", _set_den_term("c", 1.0), ".den.terms[0].c", "expected a rational scalar string"),
        ("zero", _set("num", "terms", [{"e": [0] * 9}]), ".num.terms[0]", "expected {e, c}"),
        ("nonzero", _set("den", "vars", 9.0), ".den.vars", "expected a nonnegative integer"),
        ("nonzero", _set_den_exponent(False), ".den.terms[0].e",
         "expected 9 nonnegative exponents"),
        ("nonzero", _set_den_term("c", "1/x"), ".den.terms[0].c",
         "not a rational scalar: '1/x'"),
        ("nonzero", _constant_in_8_vars("num"), ".num.vars",
         "expected 9, as in $.matrix[0][0].num"),
        ("nonzero", _constant_in_8_vars("den"), ".den.vars", "expected 9, as in ENTRY.num"),
    ],
    ids=["zero-float-vars", "zero-bool-exponent", "zero-float-exponent", "zero-float-coefficient",
         "zero-term-without-c", "den-float-vars", "den-bool-exponent", "den-bad-coefficient",
         "num-other-vars", "den-other-vars"],
)
def test_sharing_keeps_every_error(entry, edit, suffix, message):
    """An entry after a shared zero, or a den after a shared den, whose JSON
    is == to the shared one's but not the same, or differs, is decoded and
    reports its own path and message."""
    obj, zero, nonzero = _det3_witness()
    i, j = zero if entry == "zero" else nonzero
    edit(obj["matrix"][i][j])
    with pytest.raises(JsonFormatError) as exc:
        decode_scaled_witness(obj, QQ, n=9)
    at = "$.matrix[%d][%d]" % (i, j)
    assert str(exc.value) == "%s%s: %s" % (at, suffix, message.replace("ENTRY", at))


def test_zero_denominator_after_a_shared_one_still_divides_by_zero():
    obj, _, (i, j) = _det3_witness()
    obj["matrix"][i][j]["den"]["terms"] = []
    with pytest.raises(ZeroDivisionError):
        decode_scaled_witness(obj, QQ, n=9)


def test_scalar_den_must_have_the_vars_of_its_num():
    obj, _, _ = _det3_witness()
    obj["scalar"]["den"]["vars"] = 8
    obj["scalar"]["den"]["terms"] = [{"e": [0] * 8, "c": "1"}]
    with pytest.raises(JsonFormatError) as exc:
        decode_scaled_witness(obj, QQ, n=9)
    assert str(exc.value) == "$.scalar.den.vars: expected 9, as in $.scalar.num"


def test_witness_decoding_skips_shared_zeros_and_denominators(monkeypatch):
    """At most one decode_polynomial call per nonzero entry and distinct
    den, and two more (the first zero num and the scalar's num); the
    squared witness of the block sum of two det-3 norms makes 651 at
    every entry's num and den."""
    m = scaled_block_sum(det_norm(3), [2, -3]).witness.matrix
    m2 = W._rf_mat_mul(m, m)
    nx = m2[0][0].num.nvars
    w = ScaledWitness(RationalFunction.const(QQ, nx, 1), m2)
    obj = rebuild(dense_scaled_witness(w))
    calls = []
    decode = jsonio.decode_polynomial
    monkeypatch.setattr(jsonio, "decode_polynomial",
                        lambda *a, **kw: calls.append(a) or decode(*a, **kw))
    got = decode_scaled_witness(obj, QQ, n=len(m2))
    entries = [e for row in m2 for e in row]
    nonzero = [e for e in entries if not e.is_zero()]
    dens = []
    for e in nonzero:
        if all(e.den != d for d in dens):
            dens.append(e.den)
    assert (len(entries), len(nonzero), len(dens)) == (324, 18, 1)
    assert len(calls) <= len(nonzero) + len(dens) + 2
    assert all(a == b for a, b in zip((e for row in got.matrix for e in row), entries))


_NUM3 = {"vars": 3, "terms": [{"e": [1, 0, 0], "c": "1"}]}
_ONE2 = {"vars": 2, "terms": [{"e": [0, 0], "c": "1"}]}
_ONE3 = {"vars": 3, "terms": [{"e": [0, 0, 0], "c": "1"}]}


@pytest.mark.parametrize(
    "edit, path, message",
    [
        ({"n": 0}, "$.n", "expected a positive integer"),
        ({"n": True}, "$.n", "expected a positive integer"),
        ({"n": "2"}, "$.n", "expected a positive integer"),
        ({"entries": {}}, "$.entries", "expected a list"),
        ({"entries": [[0, 0]]}, "$.entries[0]", "expected [i, j, num, den]"),
        ({"entries": [[0, 2, _NUM3]]}, "$.entries[0][1]", "expected an index below 2"),
        ({"entries": [[-1, 0, _NUM3]]}, "$.entries[0][0]", "expected an index below 2"),
        ({"entries": [[0, 1.0, _NUM3]]}, "$.entries[0][1]", "expected an index below 2"),
        ({"entries": [[True, 0, _NUM3]]}, "$.entries[0][0]", "expected an index below 2"),
        ({"entries": [[1, 0, _NUM3], [1, 0, _NUM3]]}, "$.entries[1]",
         "repeats the position [1, 0]"),
        ({"entries": [[0, 0, _NUM3, _ONE2]]}, "$.entries[0][3].vars",
         "expected 3, as in $.entries[0][2]"),
        ({"entries": [[0, 0, _NUM3], [1, 1, {"vars": 2, "terms": []}]]}, "$.entries[1][2].vars",
         "expected 3, as in $.entries[0][2]"),
        ({"den": _ONE2}, "$.den.vars", "expected 3, as in $.entries[0][2]"),
        ({"entries": [[0, 0, {"vars": 3, "terms": [{"e": [1, 0], "c": "1"}]}]]},
         "$.entries[0][2].terms[0].e", "expected 3 nonnegative exponents"),
        ({"entries": [[0, 0, _NUM3, {"vars": 3, "terms": [{"e": [0, 0, 0], "c": "x"}]}]]},
         "$.entries[0][3].terms[0].c", "not a rational scalar: 'x'"),
    ],
)
def test_sparse_witness_errors_keep_their_paths(edit, path, message):
    obj = dict({"kind": "scaled", "n": 2, "den": _ONE3, "entries": [[0, 0, _NUM3]]}, **edit)
    with pytest.raises(JsonFormatError) as exc:
        decode_scaled_witness(obj, QQ, n=2)
    assert str(exc.value) == "%s: %s" % (path, message)


def test_sparse_witness_takes_its_dens_and_vars_from_the_payload():
    """An entry without a den has the top-level den, else 1; an entry's own
    den wins; zero entries and a missing scalar take the number of
    variables from the first entry, else from the den, else the scalar."""
    x = RationalFunction.from_poly(var(3, 0))
    half = RationalFunction(var(3, 0), const(3, 2))
    obj = {"n": 2, "den": rebuild(encode_polynomial(const(3, 2))),
           "entries": [[0, 0, _NUM3], [1, 1, _NUM3, _ONE3]]}
    w = decode_scaled_witness(obj, QQ, n=2)
    zero = RationalFunction.const(QQ, 3, 0)
    assert w.matrix == ((half, zero), (zero, x))
    assert w.scalar == RationalFunction.const(QQ, 3, 1)
    del obj["den"]
    assert decode_scaled_witness(obj, QQ, n=2).matrix == ((x, zero), (zero, x))
    w = decode_scaled_witness({"n": 1, "den": _ONE2, "entries": []}, QQ, n=1)
    assert w.matrix == ((RationalFunction.const(QQ, 2, 0),),) and w.scalar.num.nvars == 2
    with pytest.raises(JsonFormatError) as exc:
        decode_scaled_witness({"n": 1, "entries": []}, QQ, n=1)
    assert str(exc.value) == "$: expected an entry, a den or a scalar"


@pytest.mark.parametrize(
    "edit, path, message",
    [
        ({"n": -1}, "$.matrices.n", "expected a positive integer"),
        ({"constants": None}, "$.matrices.constants", "expected a list"),
        ({"constants": [[0, 0, 0]]}, "$.matrices.constants[0]",
         "expected three indices and a constant"),
        ({"constants": [[0, 0, 2, "1"]]}, "$.matrices.constants[0][2]",
         "expected an index below 2"),
        ({"constants": [[0, "1", 0, "1"]]}, "$.matrices.constants[0][1]",
         "expected an index below 2"),
        ({"constants": [[0, 1, 1, "1"], [0, 1, 1, "2"]]}, "$.matrices.constants[1]",
         "repeats the position [0, 1, 1]"),
        ({"constants": [[0, 1, 1, "1/0"]]}, "$.matrices.constants[0][3]",
         "not a rational scalar: '1/0'"),
    ],
)
def test_sparse_constants_errors_keep_their_paths(edit, path, message):
    obj = {"kind": "composition", "matrices": dict({"n": 2, "constants": []}, **edit)}
    with pytest.raises(JsonFormatError) as exc:
        decode_structure_matrices(obj, QQ, n=2)
    assert str(exc.value) == "%s: %s" % (path, message)
    obj = {"kind": "algebra", "structure": obj["matrices"], "unit": ["1", "0"]}
    with pytest.raises(JsonFormatError) as exc:
        decode_algebra(obj, QQ, n=2)
    assert str(exc.value) == "%s: %s" % (path.replace("matrices", "structure"), message)


@pytest.mark.parametrize("decode, obj, message", [
    (decode_scaled_witness, {"n": 3, "entries": []}, "witness matrix must be 2 x 2"),
    (decode_structure_matrices, {"matrices": {"n": 3, "constants": []}},
     "need one structure matrix per coordinate"),
    (decode_algebra, {"structure": {"n": 3, "constants": []}},
     "presentation dimension does not match the form"),
])
def test_sparse_dimension_must_be_the_expected_one(decode, obj, message):
    with pytest.raises(DimensionMismatch, match=message):
        decode(obj, QQ, "$", n=2)


def test_sparse_payloads_are_small():
    """Only the nonzero entries and constants are written: det-4's
    constructed form and the squared witness of the block sum of two det-3
    norms stay under 40 KB."""
    m = scaled_block_sum(det_norm(3), [2, -3]).witness.matrix
    m2 = W._rf_mat_mul(m, m)
    square = ScaledWitness(RationalFunction.const(QQ, m2[0][0].num.nvars, 1), m2)
    obj = encode_scaled_witness(square)
    assert (len(obj["entries"]), "den" in obj) == (18, True)
    assert len(dumps(obj)) < 40_000
    obj = encode_constructed_form(det_norm(4))
    assert len(obj["composition"]["matrices"]["constants"]) == 64
    assert len(dumps(obj)) < 40_000


def test_dumps_writes_one_line():
    text = dumps(encode_constructed_form(tits_cubic(2)))
    assert "\n" not in text and ": " not in text and ", " not in text
    assert json.loads(text) == rebuild(encode_constructed_form(tits_cubic(2)))


def test_verification_report_has_no_elapsed_time():
    cf = tits_cubic(1)
    rep = verify_scaled_witness(cf.form, cf.witness)
    assert rep.elapsed_s > 0
    assert "elapsed_s" not in encode_verification_report(rep)


def _algebras():
    sqrt2 = field_extend(QQ, [-2, 0, 1])
    cfs = [cf for _, cf in catalog()] + [tits_cubic(sqrt2.element([1, 2]))]
    return [cf.algebra for cf in cfs if cf.algebra is not None]


@pytest.mark.parametrize("alg", _algebras(), ids=lambda a: "dim%d" % a.dim)
def test_algebra_round_trip_sparse_and_dense(alg):
    """Every algebra of the catalog, and the Tits cubic's over Q(sqrt 2),
    decodes from its sparse encoding and from the dense spelling to the
    same constants, unit, involution and trace."""
    def value(a):
        return a.structure, a.unit, a.involution, a.trace, a.associative, a.norm

    sparse = rebuild(encode_algebra(alg))
    assert len(sparse["structure"]["constants"]) == len(alg.tensor.constants())
    got = decode_algebra(sparse, alg.field, "$", n=alg.dim)
    assert value(got) == value(alg)
    assert value(decode_algebra(rebuild(dense_algebra(alg)), alg.field, n=alg.dim)) == value(alg)
