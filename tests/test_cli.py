import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import formforge
from formforge import (
    HomogeneousForm,
    LinearMap,
    Polynomial,
    QQ,
    RationalFunction,
    ScaledWitness,
    apply_change_of_basis,
    composition_algebra_norm,
    det_norm,
    diagonal_form,
    field_extend,
    orthogonal_sum,
    tits_cubic,
)
from formforge import cli, decompose, jsonio, witness
from formforge.cli import main
from formforge.constructions import ConstructedForm, cayley_dickson_quartic, split_jordan_q4
from formforge.jsonio import (
    decode_algebra,
    decode_element,
    decode_form,
    decode_scaled_witness,
    decode_structure_matrices,
    dumps,
    encode_constructed_form,
    encode_form,
    encode_scaled_witness,
)
from oracles import dense_algebra, dense_scaled_witness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def diag_form_file(tmp_path, coeffs, degree, name="form.json"):
    cf = diagonal_form(coeffs, degree)
    return write_json(tmp_path / name, encode_form(cf.form))


def test_construct_tits_cubic(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "tits-cubic", "--param", "a=2")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"]["kind"] == "tits-cubic"
    assert payload["witness"] is not None
    assert payload["composition"] is not None


def test_construct_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "det3.json"
    code, out, _ = run(capsys, "construct", "--kind", "det", "--param", "d=3",
                       "-o", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["form"]["degree"] == 3


def test_construct_rejects_unknown_param(capsys):
    code, _, err = run(capsys, "construct", "--kind", "det", "--param", "d=3",
                       "--param", "bogus=1")
    assert code == 3
    assert "bogus" in err


def test_verify_uses_stored_witness(capsys, tmp_path):
    cf = tits_cubic(2)
    path = write_json(tmp_path / "tits.json", encode_constructed_form(cf))
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "proved"


def test_verify_explicit_witness_refuted(capsys, tmp_path):
    phi = diagonal_form([1, 1], 3).form
    form_path = write_json(tmp_path / "cubic.json", encode_form(phi))
    rows = tuple(
        tuple(
            RationalFunction.const(QQ, 4, 1 if i == j else 0)
            for j in range(2)
        )
        for i in range(2)
    )
    bad = ScaledWitness(RationalFunction.from_poly(phi.body), rows)
    witness_path = write_json(tmp_path / "bad.json", encode_scaled_witness(bad))
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", form_path,
                       "--witness", witness_path)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "refuted"
    assert payload["counterexample"] is not None


# the first draws of seed 1 in the default box, as random mode's points
_SEED1_DRAWS = [-718218, 193707, 777197, 682471, 601751, -867656]


@pytest.mark.parametrize("mode", ["symbolic", "random"])
@pytest.mark.parametrize("nx", [0, 1, 2, 4])
def test_witness_and_scalar_in_different_variable_counts(capsys, tmp_path, mode, nx):
    """The identity witness of constants in nx variables, with c = phi(X) in
    2, is refuted in max(nx, 2) X variables: the smaller side sits at offset
    0, and the counterexample is max(nx, 2) x coordinates, then 2 y ones."""
    phi = diagonal_form([1, 1], 3).form
    form_path = write_json(tmp_path / "cubic.json", encode_form(phi))
    rows = tuple(tuple(RationalFunction.const(QQ, nx, 1 if i == j else 0) for j in range(2))
                 for i in range(2))
    w = ScaledWitness(RationalFunction.from_poly(phi.body), rows)
    witness_path = write_json(tmp_path / "w.json", encode_scaled_witness(w))
    extra = ["--seed", "1"] if mode == "random" else []
    code, out, err = run(capsys, "verify", "strong-mult", "--form", form_path,
                         "--witness", witness_path, "--mode", mode, *extra)
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert (payload["verdict"], payload["mode"]) == ("refuted", mode)
    size = max(nx, 2) + 2
    want = [1] * size if mode == "symbolic" else _SEED1_DRAWS[:size]
    assert payload["counterexample"] == want


def test_verify_composition_from_constructed_form(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--kind", "det", "--param", "d=2")
    assert code == 0
    path = write_json(tmp_path / "det2.json", json.loads(out))
    code, out, _ = run(capsys, "verify", "composition", "--form", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "proved"


def test_verify_random_requires_seed(capsys, tmp_path):
    cf = tits_cubic(1)
    path = write_json(tmp_path / "tits.json", encode_constructed_form(cf))
    code, _, err = run(capsys, "verify", "strong-mult", "--form", path,
                       "--mode", "random")
    assert code == 3
    assert "seed" in err


def test_verify_random_evidence_exits_unknown(capsys, tmp_path):
    cf = tits_cubic(1)
    path = write_json(tmp_path / "tits.json", encode_constructed_form(cf))
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", path,
                       "--mode", "random", "--seed", "7", "--samples", "20")
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "evidence"
    assert payload["seed"] == 7
    assert payload["samples"] == 20


def test_budget_env_forces_random_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FORMFORGE_TERM_BUDGET", "1")
    cf = tits_cubic(1)
    path = write_json(tmp_path / "tits.json", encode_constructed_form(cf))
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["mode"] == "random"
    assert "budget" in payload["notes"]


def test_budget_flag_overrides_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FORMFORGE_TERM_BUDGET", "1")
    cf = tits_cubic(1)
    path = write_json(tmp_path / "tits.json", encode_constructed_form(cf))
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", path,
                       "--budget", "1000000")
    assert code == 0
    assert json.loads(out)["mode"] == "symbolic"


@pytest.mark.parametrize(
    "flags",
    [
        ("--mode", "random", "--seed", "1", "--samples", "-2"),
        ("--mode", "random", "--seed", "1", "--samples", "0"),
        ("--samples", "0"),
        ("--budget", "0"),
        ("--budget", "-3"),
        ("--mode", "symbolic", "--budget", "0"),
    ],
)
def test_verify_rejects_non_positive_samples_and_budget(capsys, tmp_path, flags):
    """A sample count below 1 gave "evidence" with no bound behind it, and a
    budget below 1 sent auto mode to random sampling; both exit 3 before any
    work, whatever the mode."""
    path = write_json(tmp_path / "tits.json", encode_constructed_form(tits_cubic(1)))
    code, out, err = run(capsys, "verify", "strong-mult", "--form", path, *flags)
    assert code == 3
    assert out == ""
    assert "must be positive" in err


def test_exponent_subcommand(capsys):
    code, out, _ = run(capsys, "exponent", "--degree", "6", "--exponent", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 2
    assert payload["implies_strong"] is False
    assert payload["chain"] == [[2, 2]]


def test_exponent_strong_case(capsys):
    code, out, _ = run(capsys, "exponent", "--degree", "5", "--exponent", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 1
    assert payload["implies_strong"] is True


def test_obstruct_exit_codes(capsys, tmp_path):
    obstructed = diag_form_file(tmp_path, [1, 1], 3, "pair.json")
    code, out, _ = run(capsys, "obstruct", "--form", obstructed)
    assert code == 0
    assert json.loads(out)["verdict"] == "obstructed"

    cf = tits_cubic(2)
    unknown = write_json(tmp_path / "tits.json", encode_constructed_form(cf))
    code, out, _ = run(capsys, "obstruct", "--form", unknown)
    assert code == 2
    assert json.loads(out)["verdict"] == "consistent_unknown"


def test_decompose_with_absolute_flag(capsys, tmp_path):
    body = Polynomial.from_pairs(QQ, 2, [((1, 2), 1)])
    phi = HomogeneousForm.from_body(3, body)
    path = write_json(tmp_path / "xy2.json", encode_form(phi))
    code, out, _ = run(capsys, "decompose", "--form", path, "--absolute")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["components"]) == 1
    assert payload["absolutely_indecomposable"] is True


@pytest.mark.parametrize("make", [
    lambda: det_norm(3).form,
    lambda: cayley_dickson_quartic(split_jordan_q4(), 3).form,
], ids=["det3", "cayley-dickson"])
def test_decompose_absolute_builds_one_center(capsys, tmp_path, monkeypatch, make):
    """`--absolute` reads its verdict off the decomposition's own center."""
    path = write_json(tmp_path / "form.json", encode_form(make()))
    calls, center_algebra = [], decompose.center_algebra
    monkeypatch.setattr(decompose, "center_algebra",
                        lambda theta: calls.append(1) or center_algebra(theta))
    code, out, err = run(capsys, "decompose", "--form", path, "--absolute")
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["components"]) == 1
    assert payload["absolutely_indecomposable"] is True
    assert len(calls) == 1


def test_decompose_over_q_sqrt2_peels_rational_roots(capsys, tmp_path):
    """Over Q(sqrt 2) the idempotents of a diagonal summand have the minimal
    polynomial t^2 - t, which splits without factoring over Q."""
    k = field_extend(QQ, [-2, 0, 1])
    r2 = k.element([0, 1])
    pair = diagonal_form([k.one, r2], 3, field=k).form
    triple = diagonal_form([k.one, r2, k.one + r2], 3, field=k).form
    with_tits = orthogonal_sum(triple, tits_cubic(r2).form)
    for phi, dims in ((pair, [1, 1]), (with_tits, [1, 1, 1, 3])):
        path = write_json(tmp_path / "form.json", encode_form(phi))
        code, out, err = run(capsys, "decompose", "--form", path)
        assert code == 0, err
        assert [c["dim"] for c in json.loads(out)["components"]] == dims


def test_decompose_absolute_over_q_sqrt2(capsys, tmp_path):
    """The Tits cubic of sqrt 2 over Q(sqrt 2) is absolutely indecomposable:
    the center's semisimple part has rank [Q(sqrt 2):Q] = 2 over Q."""
    k = field_extend(QQ, [-2, 0, 1])
    path = write_json(tmp_path / "tits.json", encode_form(tits_cubic(k.gen).form))
    code, out, err = run(capsys, "decompose", "--form", path, "--absolute")
    assert code == 0, err
    payload = json.loads(out)
    assert [c["dim"] for c in payload["components"]] == [3]
    assert payload["absolutely_indecomposable"] is True


@pytest.mark.parametrize("coeffs, commands, message", [
    (lambda k: [k.one, k.one + k.gen], ("radical", "decompose"),
     "ZeroDivisor: zero divisor in Etale(deg=2 over QQ)"),
    (lambda k: [k.one, k.gen, k.from_rational(3)], ("decompose",),
     "ValueError: decomposition needs a field"),
], ids=["one-plus-t", "t-and-3"])
def test_forms_over_a_product_of_fields_exit_3(capsys, tmp_path, coeffs, commands, message):
    """Over Q[t]/(t^2 - 1), <1, 1 + t> meets a zero divisor in the radical,
    and the components of <1, t, 3> are not free modules: each command
    exits 3 with a message, not 1 ("refuted") with a traceback."""
    k = field_extend(QQ, [-1, 0, 1])
    phi = diagonal_form(coeffs(k), 3, field=k).form
    path = write_json(tmp_path / "form.json", encode_form(phi))
    for command in commands:
        code, out, err = run(capsys, command, "--form", path)
        assert (code, out) == (3, "")
        assert err.startswith("error: " + message)


_DEGREE_LIMIT = "error: DegreeLimitExceeded: total degree %d is above the limit of 65535\n"


def test_form_above_the_degree_limit_exits_3(capsys, tmp_path):
    """A one-term form of degree 2^16 does not fit the packed exponents:
    decoding it exits 3 with the limit, before any work."""
    body = {"vars": 1, "terms": [{"e": [65536], "c": "1"}]}
    path = write_json(tmp_path / "form.json", {"degree": 65536, "vars": 1, "body": body})
    assert run(capsys, "radical", "--form", path) == (3, "", _DEGREE_LIMIT % 65536)


def test_power_above_the_degree_limit_exits_3(capsys, tmp_path):
    """x0^3 to the power 21846 has degree 65538: `construct --kind power`
    exits 3 with the limit, before the power is expanded."""
    cube = HomogeneousForm(QQ, 3, 1, Polynomial.variable(QQ, 1, 0) ** 3)
    path = write_json(tmp_path / "cube.json", encode_form(cube))
    assert run(capsys, "construct", "--kind", "power", "--param", "m=21846",
               "--input", path) == (3, "", _DEGREE_LIMIT % 65538)


_OMEGA = field_extend(QQ, [1, 1, 1])


@pytest.mark.parametrize("k", [
    field_extend(QQ, [-2, 0, 1]),
    field_extend(_OMEGA, [_OMEGA.from_rational(-2), _OMEGA.zero, _OMEGA.zero, _OMEGA.one]),
], ids=["sqrt2", "tower"])
def test_decompose_over_etale_fields_imports_no_sympy(tmp_path, k):
    """A basis-changed <1 + t, -1 + t> plus a Tits cubic over Q(sqrt 2) and
    over Q(omega)(cbrt 2), t the generator: the field itself and every
    block are certified by the divisor test, and a fresh process decomposes
    the form without importing sympy."""
    phi = orthogonal_sum(tits_cubic(k.gen + k.one).form,
                         diagonal_form([k.gen + k.one, k.gen - k.one], 3, field=k).form)
    n = phi.nvars
    rows = [[k.one if i == j else (k.gen if j == i + 1 else k.zero) for j in range(n)]
            for i in range(n)]
    path = write_json(tmp_path / "form.json",
                      encode_form(apply_change_of_basis(phi, LinearMap(k, rows))))
    script = ("import sys; from formforge.cli import main; code = main(sys.argv[1:]); "
              "sys.stderr.write('sympy imported: %s' % ('sympy' in sys.modules)); "
              "sys.exit(code)")
    done = run_checkout([sys.executable, "-c", script, "decompose", "--form", path], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert [c["dim"] for c in json.loads(done.stdout)["components"]] == [1, 1, 3]
    assert done.stderr.decode().endswith("sympy imported: False")


def test_polarize_and_radical(capsys, tmp_path):
    path = diag_form_file(tmp_path, [1, 2], 3)
    code, out, _ = run(capsys, "polarize", "--form", path)
    assert code == 0
    assert json.loads(out)["degree"] == 3

    code, out, _ = run(capsys, "radical", "--form", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 0
    assert payload["nondegenerate"] is True

    body = Polynomial.from_pairs(QQ, 2, [((3, 0), 1)])
    degen = write_json(tmp_path / "degen.json",
                       encode_form(HomogeneousForm.from_body(3, body)))
    code, out, _ = run(capsys, "radical", "--form", degen)
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_catalog_lists_builtins(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 17
    names = [row["name"] for row in rows]
    assert "det-3" in names and "albert" in names
    assert all("degree" in row and "vars" in row for row in rows)


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "construct", "--kind", "albert")
    _, second, _ = run(capsys, "construct", "--kind", "albert")
    assert first == second


def test_malformed_json_exits_4(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify", "strong-mult", "--form", str(path))
    assert code == 4
    assert "line" in err


def test_wrong_shape_json_exits_4(capsys, tmp_path):
    path = write_json(tmp_path / "shape.json", {"degree": 3, "vars": 2})
    code, _, err = run(capsys, "radical", "--form", str(path))
    assert code == 4
    assert "malformed" in err


def test_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "radical", "--form", str(tmp_path / "absent.json"))
    assert code == 3
    assert err


def test_no_subcommand_exits_3(capsys):
    code, _, _ = run(capsys)
    assert code == 3


def test_bad_flag_exits_3(capsys):
    code, _, _ = run(capsys, "exponent", "--degree", "six", "--exponent", "4")
    assert code == 3


def test_construct_product_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--kind", "pfister",
                       "--param", "gammas=1")
    assert code == 0
    hyp = write_json(tmp_path / "hyp.json", json.loads(out))
    code, out, _ = run(capsys, "construct", "--kind", "diagonal",
                       "--param", "coeffs=1", "--param", "degree=1")
    assert code == 0
    line = write_json(tmp_path / "line.json", json.loads(out))

    code, out, _ = run(capsys, "construct", "--kind", "product",
                       "--input", hyp, "--input", line)
    assert code == 0
    payload = json.loads(out)
    assert payload["form"]["degree"] == 3
    assert payload["witness"] is not None

    combined = write_json(tmp_path / "prod.json", payload)
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", combined)
    assert code == 0
    assert json.loads(out)["verdict"] == "proved"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The directory the formforge under test was imported from; the subprocesses
# below get it as PYTHONPATH so they run the same tree as the in-process call.
SOURCE_ROOT = Path(formforge.__file__).resolve().parents[1]
EXPONENT_ARGV = ["exponent", "--degree", "9", "--exponent", "6"]

# The launcher pip writes for a console script entry "module:func".
LAUNCHER = """\
import re
import sys
from {module} import {func}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def console_script_entry(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def run_checkout(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SOURCE_ROOT))
    return subprocess.run(args, capture_output=True, cwd=cwd, env=env)


def test_console_script_round_trip(tmp_path, capsys):
    module, func = console_script_entry("formforge").split(":")
    launcher = tmp_path / "formforge"
    launcher.write_text(LAUNCHER.format(module=module, func=func), encoding="utf-8")

    first = run_checkout([sys.executable, str(launcher), *EXPONENT_ARGV], tmp_path)
    assert first.returncode == 0, first.stderr.decode()
    payload = json.loads(first.stdout)
    assert payload["e"] == 3

    module_run = run_checkout(
        [sys.executable, "-c",
         "import sys; from formforge.cli import main; sys.exit(main(sys.argv[1:]))",
         *EXPONENT_ARGV],
        tmp_path,
    )
    assert module_run.returncode == 0
    assert module_run.stdout == first.stdout

    code, out, _ = run(capsys, *EXPONENT_ARGV)
    assert code == 0
    assert out.encode("utf-8") == first.stdout


@pytest.mark.skipif(shutil.which("formforge") is None,
                    reason="no formforge console script on PATH")
def test_installed_console_script_matches_main(capsys):
    installed = subprocess.run(
        [shutil.which("formforge"), *EXPONENT_ARGV], capture_output=True,
    )
    code, out, _ = run(capsys, *EXPONENT_ARGV)
    assert installed.returncode == code == 0
    assert installed.stdout == out.encode("utf-8")


def _unread_section_check(capsys, tmp_path, payload, where):
    path = write_json(tmp_path / "det2.json", payload)
    code, out, _ = run(capsys, "verify", "strong-mult", "--form", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "proved"
    code, _, err = run(capsys, "verify", "jordan", "--form", path)
    assert code == 4
    assert where in err


def test_unread_section_is_not_validated(capsys, tmp_path):
    payload = encode_constructed_form(det_norm(2))
    payload["algebra"]["structure"]["constants"][0][0] = 4  # an index out of range
    _unread_section_check(capsys, tmp_path, payload, "$.algebra.structure.constants[0][0]")


def test_unread_dense_section_is_not_validated(capsys, tmp_path):
    payload = encode_constructed_form(det_norm(2))
    payload["algebra"] = dense_algebra(det_norm(2).algebra)
    payload["algebra"]["structure"][0].pop()  # a structure plane one row short
    _unread_section_check(capsys, tmp_path, payload, "$.algebra.structure[0]")


def test_verify_jordan_split_octonion_norm(capsys, tmp_path):
    cf = composition_algebra_norm("octonion", [1, 1, 1])
    path = write_json(tmp_path / "oct.json", encode_constructed_form(cf))
    code, out, _ = run(capsys, "verify", "jordan", "--form", path, "--mode", "symbolic")
    assert code == 0
    assert json.loads(out)["verdict"] == "proved"
    code, out, _ = run(capsys, "verify", "jordan", "--form", path,
                       "--mode", "random", "--seed", "4", "--samples", "20")
    assert code == 2
    assert json.loads(out)["verdict"] == "evidence"


def test_verify_rejects_octonion_witness_with_proportional_rows(capsys, tmp_path):
    cf = composition_algebra_norm("octonion", [1, 1, 1])
    m = cf.witness.matrix
    nx = m[0][0].num.nvars
    k = RationalFunction.const(QQ, nx, 3)
    rows = [list(r) for r in m]
    rows[1] = [k * e for e in rows[0]]
    w = ScaledWitness(RationalFunction.const(QQ, nx, 1), tuple(tuple(r) for r in rows))
    form_path = write_json(tmp_path / "oct.json", encode_constructed_form(cf))
    witness_path = write_json(tmp_path / "singular.json", encode_scaled_witness(w))
    code, out, err = run(capsys, "verify", "strong-mult", "--form", form_path,
                         "--witness", witness_path)
    assert code == 3
    assert out == ""
    assert "identically zero determinant" in err


def test_parser_is_built_once_and_calls_do_not_share_values(capsys, tmp_path):
    """Successive `main` calls in one process share one parser; the append
    actions --param and --input give each call only its own values, and a
    usage error leaves the parser usable."""
    code, out, _ = run(capsys, "construct", "--kind", "diagonal",
                       "--param", "coeffs=1,2", "--param", "degree=3")
    assert code == 0
    diag = write_json(tmp_path / "diag.json", json.loads(out))
    # A leftover coeffs or degree from the call before would be rejected.
    code, out, _ = run(capsys, "construct", "--kind", "det", "--param", "d=2")
    assert code == 0
    assert json.loads(out)["form"]["degree"] == 2

    # power takes exactly one --input, so a value kept from the call before
    # would exit 3.
    for m in (2, 3):
        code, out, err = run(capsys, "construct", "--kind", "power",
                             "--input", diag, "--param", "m=%d" % m)
        assert code == 0, err
        assert json.loads(out)["form"]["degree"] == 3 * m

    code, _, _ = run(capsys, "construct", "--kind", "no-such-kind")
    assert code == 3
    code, out, _ = run(capsys, "construct", "--kind", "det", "--param", "d=3")
    assert code == 0
    assert json.loads(out)["form"]["degree"] == 3

    assert cli._build_parser() is cli._build_parser()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "expected, argv",
    [
        ("tits-cubic-2.decompose.json", ["decompose", "--absolute", "--form", "tits-cubic-2.json"]),
        ("det3-basis-changed.decompose.json",
         ["decompose", "--absolute", "--form", "det3-basis-changed.json"]),
        ("transfer-cbrt2.decompose.json",
         ["decompose", "--absolute", "--form", "transfer-cbrt2.json"]),
        ("transfer-sqrt2-sqrt3.decompose.json",
         ["decompose", "--absolute", "--form", "transfer-sqrt2-sqrt3.json"]),
        ("tits-diag-tower.decompose.json",
         ["decompose", "--absolute", "--form", "tits-diag-tower.json"]),
        ("transfer-t3-t-3.decompose.json",
         ["decompose", "--absolute", "--form", "transfer-t3-t-3.json"]),
        ("transfer-t3-t-3.obstruct.json", ["obstruct", "--form", "transfer-t3-t-3.json"]),
        ("pfister-quaternion.construct.json",
         ["construct", "--kind", "pfister", "--param", "gammas=2,-3"]),
        ("pfister-octonion.construct.json",
         ["construct", "--kind", "pfister", "--param", "gammas=-1,2,3"]),
        ("structurable-zeta2.construct.json",
         ["construct", "--kind", "structurable", "--param", "zeta=2"]),
        ("norm-compose-sqrt5.construct.json",
         ["construct", "--kind", "norm-compose", "--input", "diag-sqrt5.json"]),
        ("norm-compose-cbrt2-tower.construct.json",
         ["construct", "--kind", "norm-compose", "--input", "diag-cbrt2-tower.json"]),
        ("cube-sum-degenerate.polarize.json",
         ["polarize", "--form", "cube-sum-degenerate.json"]),
        ("cube-sum-degenerate.radical.json", ["radical", "--form", "cube-sum-degenerate.json"]),
        ("sqrt2-degenerate.polarize.json", ["polarize", "--form", "sqrt2-degenerate.json"]),
        ("sqrt2-degenerate.radical.json", ["radical", "--form", "sqrt2-degenerate.json"]),
    ],
    ids=["decompose-tits-cubic", "decompose-det3-basis-changed", "decompose-transfer-cbrt2",
         "decompose-transfer-sqrt2-sqrt3", "decompose-tits-diag-tower",
         "decompose-transfer-t3-t-3", "obstruct-transfer-t3-t-3",
         "construct-pfister-quaternion", "construct-pfister-octonion",
         "construct-structurable-zeta2", "construct-norm-compose-sqrt5",
         "construct-norm-compose-cbrt2-tower", "polarize-cube-sum-degenerate",
         "radical-cube-sum-degenerate", "polarize-sqrt2-degenerate",
         "radical-sqrt2-degenerate"],
)
def test_stdout_is_byte_identical_to_golden(capsys, monkeypatch, expected, argv):
    """The stdout of a command, byte for byte, against a golden file.  An
    earlier version of formforge, whose structure-constant arithmetic ran on
    field elements one at a time, wrote the same values indented, with
    dense constants (`golden/dense` keeps its construct outputs).  The
    inputs sit next to the outputs: a Tits cubic, det-3 after a unipotent
    change of basis, the transfer of a diagonal cubic along Q(cbrt 2)/Q,
    and two decompositions over etale fields: the transfer of <1, 2> along
    Q(sqrt 2)(sqrt 3)/Q(sqrt 2), components [2, 2], and Tits(t + 1) + <1, t>
    over Q(omega)(cbrt 2), components [1, 1, 3].  The constructions pin the
    structurable quartic of zeta = 2 and the norm compositions of <1, 2>
    over Q(sqrt 5) and over the tower Q(omega)(cbrt 2)/Q(omega).  The
    polarizations and radicals of two degenerate cubics pin entries and
    radical vectors that are not integers: (2x - 3y)^3 + z^3 over Q, of
    radical basis (3/2, 1, 0), and, over Q(sqrt 2) = Q(t),
    t u^3 + 3 u^2 z + z^3 / 2 at u = x + t y / 3, of radical basis
    (-t/3, 1, 0), whose terms repeat indices.  The transfer of <1, 2> along
    Q[t]/(t^3 - t - 3) decomposes into two 3-dimensional field blocks, and
    with no one-dimensional component `obstruct` exits 2,
    `consistent_unknown`."""
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, *argv)
    assert code == (2 if argv[0] == "obstruct" else 0)
    assert out == (GOLDEN / expected).read_text(encoding="utf-8")


def test_golden_decompose_imports_no_sympy():
    """The Q(cbrt 2) transfer needs only minimal polynomials of degree 2 and
    3 certified, and the complete rational-root test does that: a fresh
    process writes the golden stdout without importing sympy."""
    script = ("import sys; from formforge.cli import main; code = main(sys.argv[1:]); "
              "sys.stderr.write('sympy imported: %s' % ('sympy' in sys.modules)); "
              "sys.exit(code)")
    done = run_checkout([sys.executable, "-c", script, "decompose", "--absolute", "--form",
                         "transfer-cbrt2.json"], GOLDEN)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == (GOLDEN / "transfer-cbrt2.decompose.json").read_text(
        encoding="utf-8")
    assert done.stderr.decode().endswith("sympy imported: False")


_RANDOM_GOLDEN = {
    "tits-cubic-3.strong-mult.random.json": ["--form", "tits-cubic-3.witnessed.json"],
    "tits-cubic-3.tampered.random.json": ["--form", "tits-cubic-3.witnessed.json",
                                          "--witness", "tits-cubic-3.tampered.json"],
    "tits-sqrt2.strong-mult.random.json": ["--form", "tits-sqrt2.witnessed.json"],
    "tits-sqrt2.tampered.random.json": ["--form", "tits-sqrt2.witnessed.json",
                                        "--witness", "tits-sqrt2.tampered.json"],
}


_RANDOM_CASES = pytest.mark.parametrize(
    "expected, argv",
    [(name, ["verify", "strong-mult"] + args + ["--mode", "random", "--seed",
                                                "2024" if "cubic" in name else "77",
                                                "--samples", "30"])
     for name, args in _RANDOM_GOLDEN.items()]
    + [("tits-sqrt2.jordan.random.json",
        ["verify", "jordan", "--form", "tits-sqrt2.witnessed.json", "--mode", "random",
         "--seed", "5", "--samples", "30"]),
       ("tits-sqrt2.composition.random.json",
        ["verify", "composition", "--form", "tits-sqrt2.witnessed.json", "--mode", "random",
         "--seed", "6", "--samples", "30"])],
    ids=["q-genuine", "q-tampered", "sqrt2-genuine", "sqrt2-tampered", "sqrt2-jordan",
         "sqrt2-composition"],
)


@_RANDOM_CASES
def test_random_verify_stdout_matches_golden(capsys, monkeypatch, expected, argv):
    """Random-mode verify stdout, byte for byte, against files whose values
    an earlier version of formforge wrote, which evaluated every entry of
    N(x) y, every z_l and every side as its own polynomial in field
    elements: the Tits cubic with a = 3 over Q and with a = 1 + 2 sqrt 2
    over Q(sqrt 2), with their own witnesses and with one diagonal entry
    bumped by -2 x_2 (the tampered witnesses are dense).  The verdict, the
    counterexample, the samples and both bounds are the same."""
    _check_random_golden(capsys, monkeypatch, expected, argv, "")


@_RANDOM_CASES
def test_random_verify_from_dense_inputs_matches_golden(capsys, monkeypatch, expected, argv):
    """The same runs on the dense constructed forms the earlier version
    wrote give the same stdout."""
    _check_random_golden(capsys, monkeypatch, expected, argv, "dense/")


def _check_random_golden(capsys, monkeypatch, expected, argv, inputs):
    monkeypatch.chdir(GOLDEN)
    argv = [inputs + a if a.endswith(".witnessed.json") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    want = (GOLDEN / expected).read_text(encoding="utf-8")
    assert code == (1 if json.loads(want)["verdict"] == "refuted" else 2)
    assert out == want


def _auto_cases(test):
    test = pytest.mark.parametrize("name", ["tits-sqrt2", "tits-cbrt2"])(test)
    return pytest.mark.parametrize(
        "what", ["strong-mult", "composition", "jordan", "strong-jordan"])(test)


@_auto_cases
def test_auto_verify_stdout_matches_golden(capsys, monkeypatch, name, what):
    """Auto-mode (symbolic) verify stdout, byte for byte, against files whose
    values an earlier version of formforge wrote, whose polynomial
    arithmetic over an etale field multiplied field elements one
    coefficient at a time: the Tits cubic with a = 1 + 2 sqrt 2 over
    Q(sqrt 2) and with a = 1 + 2 cbrt 4 over Q(cbrt 2), strong-jordan with
    the square of the form's own witness."""
    _check_auto_golden(capsys, monkeypatch, name, what, "")


@_auto_cases
def test_auto_verify_from_dense_inputs_matches_golden(capsys, monkeypatch, name, what):
    """The same runs on the dense constructed forms and squared witnesses the
    earlier version wrote give the same stdout."""
    _check_auto_golden(capsys, monkeypatch, name, what, "dense/")


def _check_auto_golden(capsys, monkeypatch, name, what, inputs):
    monkeypatch.chdir(GOLDEN)
    argv = ["verify", what, "--form", inputs + name + ".witnessed.json"]
    if what == "strong-jordan":
        argv += ["--witness", inputs + name + ".m2.json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / ("%s.%s.auto.json" % (name, what))).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, a", [("tits-sqrt2", [1, 2]), ("tits-cbrt2", [1, 0, 2])])
def test_squared_witness_matches_golden(name, a):
    """The square of the Tits cubic's witness matrix, by `_rf_mat_mul`,
    encodes byte for byte as the golden file, which holds the values the
    earlier version wrote, that added up every product of entries as a
    rational function (`golden/dense` keeps its file)."""
    field = field_extend(QQ, [-2, 0, 1] if len(a) == 2 else [-2, 0, 0, 1])
    cf = tits_cubic(field.element(a))
    assert (GOLDEN / (name + ".witnessed.json")).read_text(encoding="utf-8") == (
        dumps(encode_constructed_form(cf)) + "\n")
    m = cf.witness.matrix
    square = ScaledWitness(scalar=RationalFunction.const(field, m[0][0].num.nvars, field.one),
                           matrix=witness._rf_mat_mul(m, m))
    assert (GOLDEN / (name + ".m2.json")).read_text(encoding="utf-8") == (
        dumps(encode_scaled_witness(square)) + "\n")


def _reencoded(obj, phi=None):
    """A dense constructed form, or a dense witness of the form phi, decoded
    and encoded again."""
    if phi is not None:
        return encode_scaled_witness(decode_scaled_witness(obj, phi.field, n=phi.nvars))
    phi = decode_form(obj["form"], "$.form")
    f, n = phi.field, phi.nvars
    return encode_constructed_form(ConstructedForm(
        form=phi,
        provenance=obj["provenance"],
        witness=decode_scaled_witness(obj["witness"], f, "$.witness", n=n),
        composition=decode_structure_matrices(obj["composition"], f, "$.composition", n=n),
        algebra=decode_algebra(obj["algebra"], f, "$.algebra", n=n),
        unit=tuple(decode_element(f, c) for c in obj["unit"]),
    ))


@pytest.mark.parametrize("name", sorted(p.name for p in (GOLDEN / "dense").iterdir()))
def test_dense_golden_reencodes_to_its_sparse_golden(name):
    """Every dense file an earlier version of formforge wrote, decoded and
    encoded again, is its golden byte for byte, so a golden's values cannot
    drift from the dense file's unseen."""
    obj = json.loads((GOLDEN / "dense" / name).read_text(encoding="utf-8"))
    phi = None
    if "form" not in obj:  # a squared witness of the form of its witnessed file
        form = json.loads((GOLDEN / name.replace(".m2.", ".witnessed.")).read_text(
            encoding="utf-8"))
        phi = decode_form(form["form"])
    assert dumps(_reencoded(obj, phi)) + "\n" == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(p.name for p in (GOLDEN / "dense").iterdir()))
def test_dense_golden_decodes_to_its_sparse_twin(name):
    """A dense file and its sparse golden decode to equal payloads, and in
    both every zero entry of the witness is one shared object."""
    def decoded(obj):
        if "form" not in obj:  # a squared witness of the form of its witnessed file
            obj = {"form": json.loads((GOLDEN / name.replace(".m2.", ".witnessed.")).read_text(
                encoding="utf-8"))["form"], "witness": obj}
        phi = decode_form(obj["form"])
        f, n = phi.field, phi.nvars
        w = decode_scaled_witness(obj["witness"], f, n=n)
        assert len({id(e) for row in w.matrix for e in row if e.is_zero()}) <= 1
        out = [w.scalar, w.matrix]
        if "algebra" in obj:
            a = decode_algebra(obj["algebra"], f, n=n)
            out += [decode_structure_matrices(obj["composition"], f, n=n), a.tensor.rows,
                    a.tensor.den, a.unit, a.involution, a.trace, a.norm, a.associative]
        return out

    dense = json.loads((GOLDEN / "dense" / name).read_text(encoding="utf-8"))
    assert decoded(dense) == decoded(json.loads((GOLDEN / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("mode", ["auto", "symbolic", "random"])
def test_witness_with_mixed_vars_exits_4(capsys, tmp_path, mode):
    """An entry of det-2's witness in 3 variables, where the others have 4,
    is malformed input (exit 4) in every mode, whether the witness comes in
    a --witness file or in the form file."""
    payload = encode_constructed_form(det_norm(2))
    payload["witness"] = dense_scaled_witness(det_norm(2).witness)
    payload["witness"]["matrix"][0][1] = {"num": {"vars": 3, "terms": []}}
    form_path = write_json(tmp_path / "det2.json", payload)
    witness_path = write_json(tmp_path / "witness.json", payload["witness"])
    flags = ["--mode", mode, "--seed", "1"]
    for argv, path in (
        (["--form", form_path, "--witness", witness_path], "$.matrix[0][1].num.vars"),
        (["--form", form_path], "$.witness.matrix[0][1].num.vars"),
    ):
        code, out, err = run(capsys, "verify", "strong-mult", *argv, *flags)
        assert (code, out) == (4, "")
        assert err == ("error: malformed JSON payload at %s: expected 4, as in %s\n"
                       % (path, path.replace("[0][1].num.vars", "[0][0].num")))


def test_witness_scalar_den_in_other_vars_exits_4(capsys, tmp_path):
    """construct --kind power reads the scalar of its input's witness; a den
    in other variables than its num is malformed input."""
    payload = encode_constructed_form(det_norm(2))
    payload["witness"]["scalar"]["den"] = {"vars": 3, "terms": [{"e": [0, 0, 0], "c": "1"}]}
    path = write_json(tmp_path / "det2.json", payload)
    code, out, err = run(capsys, "construct", "--kind", "power", "--param", "m=2", "--input", path)
    assert (code, out) == (4, "")
    assert "$.witness.scalar.den.vars: expected 4, as in $.witness.scalar.num" in err


def test_algebra_norm_of_another_space_exits_4(capsys, tmp_path):
    """The quaternion algebra of a pfister file whose norm is det-3's cubic
    in 9 variables is malformed input: `verify jordan` exits 4 at the
    algebra, where it would otherwise prove the 4-variable form."""
    payload = json.loads((GOLDEN / "pfister-quaternion.construct.json").read_text(
        encoding="utf-8"))
    payload["algebra"]["norm"] = encode_constructed_form(det_norm(3))["form"]
    path = write_json(tmp_path / "quaternion.json", payload)
    code, out, err = run(capsys, "verify", "jordan", "--form", path)
    assert (code, out) == (4, "")
    assert err == ("error: malformed JSON payload at $.algebra: norm is not a form on "
                   "the algebra: 9 variables over QQ\n")


@pytest.mark.parametrize(
    "section, payload, argv, message",
    [
        ("witness", {"kind": "scaled", "n": 10**9, "entries": []}, ["strong-mult"],
         "witness matrix must be 4 x 4"),
        ("composition", {"kind": "composition", "matrices": {"n": 10**4, "constants": []}},
         ["composition"], "need one structure matrix per coordinate"),
        ("algebra", {"kind": "algebra", "structure": {"n": 10**4, "constants": []}, "unit": []},
         ["jordan"], "presentation dimension does not match the form"),
    ],
    ids=["witness", "composition", "algebra"],
)
def test_huge_sparse_dimension_exits_before_allocating(capsys, tmp_path, section, payload,
                                                       argv, message):
    """A sparse payload whose n is not the form's dimension exits 3 at once,
    before anything of size n is built, from a --witness file and from the
    form file alike."""
    form = encode_constructed_form(det_norm(2))
    form[section] = payload
    form_path = write_json(tmp_path / "det2.json", form)
    witness_path = write_json(tmp_path / "payload.json", payload)
    for files in (["--form", form_path], ["--form", form_path, "--witness", witness_path]):
        tracemalloc.start()
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv, *files)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (code, out, err) == (3, "", "error: DimensionMismatch: %s\n" % message)
        assert elapsed < 1.0 and peak < 10 * 2**20


_ZERO4 = {"num": {"vars": 4, "terms": []}}
_PLANES5 = [[["1" if i == j == l else "0" for l in range(5)] for j in range(5)] for i in range(5)]


@pytest.mark.parametrize(
    "section, payload, argv, message",
    [
        ("witness", {"kind": "scaled", "matrix": [[_ZERO4] * 5] * 5}, ["strong-mult"],
         "witness matrix must be 4 x 4"),
        ("composition", {"kind": "composition", "matrices": _PLANES5}, ["composition"],
         "need one structure matrix per coordinate"),
        ("algebra", {"kind": "algebra", "structure": _PLANES5, "unit": ["1"] * 5,
                     "associative": True}, ["jordan"],
         "presentation dimension does not match the form"),
    ],
    ids=["witness", "composition", "algebra"],
)
def test_dense_dimension_exits_before_decoding(capsys, tmp_path, monkeypatch, section, payload,
                                                argv, message):
    """A dense payload that is not of the form's dimension exits 3 with the
    message of the sparse shape, before any of its entries is decoded."""
    form = encode_constructed_form(det_norm(2))
    form[section] = payload
    form_path = write_json(tmp_path / "det2.json", form)
    witness_path = write_json(tmp_path / "payload.json", payload)
    paths = []
    for name in ("decode_polynomial", "decode_element"):
        decode = getattr(jsonio, name)
        monkeypatch.setattr(jsonio, name, lambda *a, decode=decode, **kw: paths.append(
            a[2] if len(a) > 2 else kw.get("path")) or decode(*a, **kw))
    for files in (["--form", form_path], ["--form", form_path, "--witness", witness_path]):
        code, out, err = run(capsys, "verify", *argv, *files)
        assert (code, out, err) == (3, "", "error: DimensionMismatch: %s\n" % message)
    assert not [p for p in paths if "matri" in p or "structure" in p or "unit" in p]


@pytest.mark.parametrize("section, what", [("witness", "strong-mult"),
                                           ("composition", "composition"),
                                           ("algebra", "jordan")])
def test_section_that_is_not_an_object_exits_4(capsys, tmp_path, section, what):
    payload = encode_constructed_form(det_norm(2))
    payload[section] = [1]
    path = write_json(tmp_path / "det2.json", payload)
    code, out, err = run(capsys, "verify", what, "--form", path)
    assert (code, out) == (4, "")
    assert err == "error: malformed JSON payload at $.%s: expected a witness object\n" % section
