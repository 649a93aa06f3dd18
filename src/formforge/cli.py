"""Command-line surface: construct, verify, obstruct, decompose, and report.

Stable exit codes: 0 proved/true, 1 refuted/false, 2 unknown/evidence,
3 usage or runtime error, 4 malformed JSON.  All results are JSON on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import constructions, jsonio, witness
from .coeffield import QQ, field_extend
from .decompose import krull_schmidt_decompose
from .forms import polarize, radical
from .jsonio import JsonFormatError
from .poly import DEFAULT_SAMPLES

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
EXIT_BAD_JSON = 4

CONSTRUCT_KINDS = (
    "diagonal",
    "monomial",
    "product",
    "norm-compose",
    "det",
    "pfister",
    "tits-cubic",
    "albert",
    "structurable",
    "cayley-dickson",
    "power",
    "block-sum",
)

VERIFY_KINDS = (
    "strong-mult",
    "strong-jordan",
    "exponent",
    "similarity",
    "twist",
    "composition",
    "jordan",
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit contract reserves 2 for
    # unknown/evidence, so route usage failures to 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message):
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        return EXIT_ERROR


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="formforge", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("construct", help="build a form from the catalog of recipes")
    p.add_argument("--kind", required=True, choices=CONSTRUCT_KINDS)
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="recipe parameter, e.g. coeffs=1,2,3 or degree=3",
    )
    p.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="FORM.json",
        help="input form(s) for product, power, and norm-compose",
    )
    _add_output(p)

    p = sub.add_parser("verify", help="check a multiplicativity witness")
    p.add_argument("what", choices=VERIFY_KINDS)
    p.add_argument("--form", required=True, metavar="FORM.json")
    p.add_argument(
        "--witness",
        metavar="WITNESS.json",
        help="witness payload; defaults to the one stored in a constructed form",
    )
    _add_verify_flags(p)
    p.add_argument("--s", type=int, help="exponent for 'exponent' and 'twist'")
    p.add_argument("--scalar", help="similarity factor for 'similarity'")
    p.add_argument("--mu", help="root of unity for 'twist'")
    _add_output(p)

    p = sub.add_parser("obstruct", help="Krull-Schmidt obstruction to strong multiplicativity")
    p.add_argument("--form", required=True, metavar="FORM.json")
    _add_output(p)

    p = sub.add_parser("decompose", help="orthogonal decomposition into indecomposables")
    p.add_argument("--form", required=True, metavar="FORM.json")
    p.add_argument(
        "--absolute",
        action="store_true",
        help="also test absolute indecomposability of a single component",
    )
    _add_output(p)

    p = sub.add_parser("polarize", help="symmetric tensor of a form")
    p.add_argument("--form", required=True, metavar="FORM.json")
    _add_output(p)

    p = sub.add_parser("radical", help="radical of the polarization")
    p.add_argument("--form", required=True, metavar="FORM.json")
    _add_output(p)

    p = sub.add_parser("exponent", help="exponent reduction in Z/d")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--exponent", type=int, required=True)
    _add_output(p)

    p = sub.add_parser("catalog", help="list built-in constructed forms")
    _add_output(p)

    return parser


def _add_output(p):
    p.add_argument("-o", "--output", metavar="OUT.json", help="write JSON here instead of stdout")


def _add_verify_flags(p):
    p.add_argument("--mode", choices=["auto", "symbolic", "random"], default="auto")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, help="term budget override for this run")


# ---------------------------------------------------------------------------
# parameter parsing


def _params(pairs) -> dict:
    out = {}
    for raw in pairs:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise UsageError("--param expects KEY=VALUE, got %r" % raw)
        out[key] = value
    return out


def _take(params: dict, key: str, default=None, required=False):
    if key in params:
        return params.pop(key)
    if required:
        raise UsageError("missing --param %s=..." % key)
    return default


def _as_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (what, text))


def _as_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s must be rational, got %r" % (what, text))


def _as_fraction_list(text: str, what: str):
    return [_as_fraction(part, what) for part in text.split(",") if part != ""]


def _as_int_list(text: str, what: str):
    return [_as_int(part, what) for part in text.split(",") if part != ""]


def _no_leftovers(params: dict):
    if params:
        raise UsageError("unknown --param keys: %s" % ", ".join(sorted(params)))


# ---------------------------------------------------------------------------
# file I/O


def _load_json(path: str):
    return jsonio.loads_file(path)


def _load_form(path: str):
    """A plain form file or a constructed-form file; returns (form, sections),
    where sections is the undecoded constructed-form object (None for a plain
    form).  A command decodes only the sections it reads (`_section`)."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "form" in obj:
        return jsonio.decode_form(obj["form"], "$.form"), obj
    return jsonio.decode_form(obj), None


def _section(sections, name: str, phi):
    """One decoded section of a constructed-form file of the form phi, or
    None when absent."""
    if sections is None or sections.get(name) is None:
        return None
    decode = {
        "witness": jsonio.decode_scaled_witness,
        "composition": jsonio.decode_structure_matrices,
        "algebra": jsonio.decode_algebra,
    }[name]
    return decode(sections[name], phi.field, "$." + name, n=phi.nvars)


def _load_factor(path: str):
    """An input of product or power: a constructed form keeps its witness."""
    phi, sections = _load_form(path)
    if sections is None:
        return phi
    return constructions.ConstructedForm(
        form=phi,
        provenance=sections.get("provenance", {"kind": "file"}),
        witness=_section(sections, "witness", phi),
    )


def _emit(payload, output: Optional[str]) -> None:
    text = jsonio.dumps(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# construct


def _construct(args) -> int:
    params = _params(args.param)
    kind = args.kind

    if kind == "diagonal":
        coeffs = _as_fraction_list(_take(params, "coeffs", required=True), "coeffs")
        degree = _as_int(_take(params, "degree", required=True), "degree")
        _no_leftovers(params)
        cf = constructions.diagonal_form(coeffs, degree)
    elif kind == "monomial":
        exponents = _as_int_list(_take(params, "exponents", required=True), "exponents")
        _no_leftovers(params)
        cf = constructions.monomial_form(exponents)
    elif kind == "product":
        if not args.input:
            raise UsageError("product needs at least one --input form")
        powers_text = _take(params, "powers")
        _no_leftovers(params)
        powers = (
            _as_int_list(powers_text, "powers")
            if powers_text
            else [1] * len(args.input)
        )
        if len(powers) != len(args.input):
            raise UsageError("powers must match the number of --input files")
        factors = [(_load_factor(path), s) for path, s in zip(args.input, powers)]
        cf = constructions.product_form(factors)
    elif kind == "power":
        if len(args.input) != 1:
            raise UsageError("power needs exactly one --input form")
        m = _as_int(_take(params, "m", required=True), "m")
        _no_leftovers(params)
        cf = constructions.power_form(_load_factor(args.input[0]), m)
    elif kind == "norm-compose":
        if len(args.input) != 1:
            raise UsageError("norm-compose needs exactly one --input form over the extension")
        minpoly_text = _take(params, "minpoly")
        _no_leftovers(params)
        phi0, _ = _load_form(args.input[0])
        A = phi0.field
        if minpoly_text is not None:
            wanted = field_extend(QQ, _as_fraction_list(minpoly_text, "minpoly"))
            if A != wanted:
                raise UsageError("the input form is not over the requested extension")
        cf = constructions.norm_compose(A, phi0)
    elif kind == "det":
        d = _as_int(_take(params, "d", required=True), "d")
        _no_leftovers(params)
        cf = constructions.det_norm(d)
    elif kind == "pfister":
        gammas = _as_fraction_list(_take(params, "gammas", required=True), "gammas")
        explicit = _take(params, "kind")
        _no_leftovers(params)
        by_arity = {1: "binary", 2: "quaternion", 3: "octonion"}
        if len(gammas) not in by_arity:
            raise UsageError("pfister takes 1, 2, or 3 gammas")
        algebra_kind = by_arity[len(gammas)]
        if explicit is not None and explicit != algebra_kind:
            raise UsageError("kind %r disagrees with %d gammas" % (explicit, len(gammas)))
        cf = constructions.composition_algebra_norm(algebra_kind, gammas)
    elif kind == "tits-cubic":
        a = _as_fraction(_take(params, "a", required=True), "a")
        _no_leftovers(params)
        cf = constructions.tits_cubic(a)
    elif kind == "albert":
        _no_leftovers(params)
        cf = constructions.split_albert_norm()
    elif kind == "structurable":
        zeta = _as_fraction(_take(params, "zeta", "1"), "zeta")
        _no_leftovers(params)
        triple = constructions.jordan_triple_from_degree3(
            constructions.matrix_algebra(3), zeta
        )
        cf = constructions.structurable_quartic(triple)
    elif kind == "cayley-dickson":
        mu = _as_fraction(_take(params, "mu", "1"), "mu")
        _no_leftovers(params)
        cf = constructions.cayley_dickson_quartic(constructions.split_jordan_q4(), mu)
    elif kind == "block-sum":
        d = _as_int(_take(params, "d", "3"), "d")
        scalars = _as_fraction_list(_take(params, "scalars", required=True), "scalars")
        _no_leftovers(params)
        cf = constructions.scaled_block_sum(constructions.det_norm(d), scalars)
    else:  # unreachable: argparse restricts choices
        raise UsageError("unknown kind %r" % kind)

    _emit(jsonio.encode_constructed_form(cf), args.output)
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# verify


def _verdict_exit(verdict: str) -> int:
    if verdict == "proved":
        return EXIT_TRUE
    if verdict == "refuted":
        return EXIT_FALSE
    return EXIT_UNKNOWN


def _witness_payload(args, phi, sections):
    """The (kind, payload) pair for a verify run, from --witness or the form
    file; only the section that is returned gets decoded."""
    if args.witness:
        return jsonio.decode_witness_payload(_load_json(args.witness), phi.field, n=phi.nvars)
    wanted = {"composition": ("composition", "algebra"), "jordan": ("algebra",)}
    for name in wanted.get(args.what, ()) + ("witness",):
        payload = _section(sections, name, phi)
        if payload is not None:
            return ("scaled" if name == "witness" else name), payload
    raise UsageError("no --witness given and the form file carries none")


def _verify(args) -> int:
    phi, sections = _load_form(args.form)
    kind, payload = _witness_payload(args, phi, sections)
    kw = dict(mode=args.mode, samples=args.samples, seed=args.seed, budget=args.budget)

    what = args.what
    if what == "composition":
        if kind == "algebra":
            payload = payload.tensor
        elif kind != "composition":
            raise UsageError("composition needs structure matrices or an algebra")
        rep = witness.verify_composition(phi, payload, **kw)
    elif what == "jordan":
        if kind != "algebra":
            raise UsageError("jordan needs an algebra payload")
        rep = witness.verify_jordan_composition(phi, payload, **kw)
    else:
        if kind != "scaled":
            raise UsageError("%s needs a scaled witness payload" % what)
        if what == "strong-mult":
            rep = witness.verify_strong_multiplicativity(phi, payload, **kw)
        elif what == "strong-jordan":
            rep = witness.verify_strong_jordan_multiplicativity(phi, payload, **kw)
        elif what == "exponent":
            if args.s is None:
                raise UsageError("exponent needs --s")
            rep = witness.verify_exponent(phi, payload, args.s, **kw)
        elif what == "similarity":
            if args.scalar is None:
                raise UsageError("similarity needs --scalar")
            rep = witness.verify_similarity(
                phi, payload, _as_fraction(args.scalar, "--scalar"), **kw
            )
        else:  # twist
            if args.mu is None:
                raise UsageError("twist needs --mu")
            mu = phi.field.from_rational(_as_fraction(args.mu, "--mu"))
            rep = witness.verify_mu_twist(phi, payload, mu, s=args.s or 1, **kw)

    _emit(jsonio.encode_verification_report(rep), args.output)
    return _verdict_exit(rep.verdict)


# ---------------------------------------------------------------------------
# the rest


def _obstruct(args) -> int:
    phi, _ = _load_form(args.form)
    rep = witness.krull_schmidt_obstruction(phi)
    _emit(jsonio.encode_obstruction_report(rep), args.output)
    return EXIT_TRUE if rep.verdict == "obstructed" else EXIT_UNKNOWN


def _decompose(args) -> int:
    phi, _ = _load_form(args.form)
    dec = krull_schmidt_decompose(phi)
    payload = jsonio.encode_decomposition(dec)
    if args.absolute and dec.absolutely_indecomposable is not None:
        payload["absolutely_indecomposable"] = dec.absolutely_indecomposable
    _emit(payload, args.output)
    return EXIT_TRUE


def _polarize(args) -> int:
    phi, _ = _load_form(args.form)
    _emit(jsonio.encode_tensor(polarize(phi)), args.output)
    return EXIT_TRUE


def _radical(args) -> int:
    phi, _ = _load_form(args.form)
    basis = radical(phi)
    _emit(
        {
            "dim": len(basis),
            "nondegenerate": not basis,
            "basis": [[jsonio.encode_element(c) for c in vec] for vec in basis],
        },
        args.output,
    )
    return EXIT_TRUE


def _exponent(args) -> int:
    d, s = args.degree, args.exponent
    if d < 1 or not 1 <= s:
        raise UsageError("need degree >= 1 and exponent >= 1")
    e = witness.reduce_exponent(d, s)
    _emit(
        {
            "degree": d,
            "exponent": s,
            "e": e,
            "implies_strong": witness.exponent_implies_strong(d, s),
            "chain": [[r, value] for r, value in witness.exponent_chain(d, s)],
        },
        args.output,
    )
    return EXIT_TRUE


def _catalog(args) -> int:
    rows = []
    for name, cf in constructions.catalog():
        rows.append(
            {
                "name": name,
                "provenance": cf.provenance,
                "degree": cf.form.degree,
                "vars": cf.form.nvars,
                "witness": cf.witness is not None,
                "composition": cf.composition is not None,
            }
        )
    _emit(rows, args.output)
    return EXIT_TRUE


_DISPATCH = {
    "construct": _construct,
    "verify": _verify,
    "obstruct": _obstruct,
    "decompose": _decompose,
    "polarize": _polarize,
    "radical": _radical,
    "exponent": _exponent,
    "catalog": _catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return EXIT_ERROR

    try:
        if args.subcommand == "verify":
            if args.mode == "random" and args.seed is None:
                raise UsageError("--seed is required when --mode random")
            # auto mode can fall back to random sampling, so both are checked
            # whatever the mode
            if args.samples < 1:
                raise UsageError("--samples must be positive, got %d" % args.samples)
            if args.budget is not None and args.budget < 1:
                raise UsageError("--budget must be positive, got %d" % args.budget)
        return _DISPATCH[args.subcommand](args)
    except json.JSONDecodeError as exc:
        print(
            "error: malformed JSON: %s (line %d column %d)"
            % (exc.msg, exc.lineno, exc.colno),
            file=sys.stderr,
        )
        return EXIT_BAD_JSON
    except JsonFormatError as exc:
        print("error: malformed JSON payload at %s" % exc, file=sys.stderr)
        return EXIT_BAD_JSON
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
