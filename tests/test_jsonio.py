import json
from fractions import Fraction

import pytest

from formforge import (
    HomogeneousForm,
    Polynomial,
    QQ,
    RationalFunction,
    field_extend,
    polarize,
    tits_cubic,
    verify_scaled_witness,
    krull_schmidt_decompose,
    krull_schmidt_obstruction,
    verify_composition,
)
from formforge.jsonio import (
    JsonFormatError,
    decode_field,
    decode_form,
    decode_polynomial,
    decode_rational_function,
    decode_scaled_witness,
    decode_structure_matrices,
    decode_tensor,
    decode_witness_payload,
    dumps,
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
    w = decode_scaled_witness(obj, QQ)
    assert verify_scaled_witness(cf.form, w).verdict == "proved"


def test_structure_matrices_round_trip():
    cf = tits_cubic(1)
    obj = rebuild(encode_structure_matrices(cf.composition))
    matrices = decode_structure_matrices(obj, QQ)
    assert verify_composition(cf.form, matrices).verdict == "proved"


def test_witness_payload_dispatch():
    cf = tits_cubic(1)
    kind, payload = decode_witness_payload(
        rebuild(encode_scaled_witness(cf.witness)), QQ
    )
    assert kind == "scaled"
    kind, payload = decode_witness_payload(
        rebuild(encode_structure_matrices(cf.composition)), QQ
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
_TENSOR_ENTRY = {"idx": [0, 0, 0], "c": "1"}


@pytest.mark.parametrize(
    "decode, obj, path",
    [
        (decode_form, {"degree": True, "body": {"vars": 1, "terms": [{"e": [1], "c": "1"}]}},
         "$.degree"),
        (decode_form, {"degree": 3, "vars": True, "body": _CUBE}, "$.vars"),
        (decode_tensor, {"degree": True, "dim": 1, "entries": [{"idx": [0], "c": "1"}]},
         "$.degree"),
        (decode_tensor, {"degree": 3, "dim": True, "entries": [_TENSOR_ENTRY]}, "$.dim"),
        (decode_tensor, {"degree": 3, "dim": 2, "entries": [{"idx": [0, True, 0], "c": "1"}]},
         "$.entries[0].idx"),
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
        decode_scaled_witness({"kind": "scaled", "matrix": [[{"num": 1}], []]}, QQ)
