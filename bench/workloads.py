"""Seeded job lists for the three workloads, each job with its expected answer.

A job is one ``formforge.cli.main`` call.  `build_workload` writes the input
JSON files (this is set-up, timed as part of ``setup_s``) and returns the jobs.
Every expectation comes from the mathematics of the input, never from running
the program:

* a witness built from an algebra product or a norm identity proves in
  symbolic (auto) mode and gives random-mode evidence;
* a witness with one perturbed entry is refuted in both modes;
* a witness matrix with two proportional rows is singular, which the command
  line reports with exit 3;
* an orthogonal sum decomposes into its summands: a diagonal form into
  one-dimensional pieces, the norm of a cubic field (Tits cubic with a non-cube
  parameter) is one three-dimensional piece, a central simple algebra norm
  (det-3, the Cayley-Dickson quartic) is a single absolutely indecomposable
  piece, and the transfer of <a_1, ..., a_n> along a field extension K/Q of
  degree m splits into n pieces of dimension m;
* a change of basis does not change the multiset of component dimensions.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Optional

from formforge import constructions as C
from formforge import forms as F
from formforge import jsonio
from formforge import witness as W
from formforge.coeffield import QQ, field_extend
from formforge.poly import Polynomial, RationalFunction

WORKLOADS = ("verify-auto", "verify-random", "decompose")

# Random-mode sample count per verify job.
RANDOM_SAMPLES = 50

# Parameters are drawn from fixed small ranges so that a seed changes the
# values in a job but not its shape, and the cost of a pass stays comparable
# across seeds.
NON_CUBES = (2, 3, 4, 5, 6, 7, 9, 10, 11, 12)
SMALL = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


@dataclass
class Job:
    id: str
    argv: List[str]
    expect: dict


def _nonzero(rng, pool=SMALL):
    return rng.choice(pool)


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(payload) + "\n")
    return path


def fill_memoised_recipes():
    """The recipes the library memoises; later calls in the jobs hit the cache."""
    for d in (2, 3, 4):
        C.det_norm(d)
    C.split_octonion_algebra()
    C.split_albert_norm()


# ---------------------------------------------------------------------------
# witness matrices


def _mat_power(m, k):
    acc = m
    for _ in range(k - 1):
        acc = W._rf_mat_mul(acc, m)
    return acc


def _tamper_matrix(m, rng):
    """Add c * x_k to one diagonal entry.  The entry stays nonzero, so the
    cost of the check keeps its shape, and the identity breaks."""
    n = len(m)
    nx = m[0][0].num.nvars
    i = rng.randrange(n)
    k = rng.randrange(nx)
    c = _nonzero(rng, (-3, -2, -1, 1, 2, 3))
    bump = RationalFunction.from_poly(Polynomial.variable(m[i][i].num.field, nx, k).scale(c))
    rows = [list(r) for r in m]
    rows[i][i] = rows[i][i] + bump
    return tuple(tuple(r) for r in rows)


def _tamper_structure(mats, rng):
    """Shift one nonzero structure constant by a nonzero rational."""
    l = rng.randrange(len(mats))
    nonzero = [
        (i, j)
        for i, row in enumerate(mats[l])
        for j, c in enumerate(row)
        if not c.is_zero()
    ]
    i, j = rng.choice(nonzero)
    fld = mats[l][i][j].field
    c = fld.from_rational(_nonzero(rng, (-3, -2, -1, 1, 2, 3)))
    out = [[list(row) for row in plane] for plane in mats]
    if (out[l][i][j] + c).is_zero():
        c = c + c
    out[l][i][j] = out[l][i][j] + c
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def _singular_matrix(m, k):
    """Row 1 replaced by k times row 0: the determinant vanishes identically."""
    nx = m[0][0].num.nvars
    kk = RationalFunction.const(m[0][0].num.field, nx, k)
    rows = [list(r) for r in m]
    rows[1] = [kk * e for e in rows[0]]
    return tuple(tuple(r) for r in rows)


def _scaled(matrix):
    """A witness payload; verify derives the scalar from the subcommand."""
    fld = matrix[0][0].num.field
    return W.ScaledWitness(
        scalar=RationalFunction.const(fld, matrix[0][0].num.nvars, fld.one), matrix=matrix)


# ---------------------------------------------------------------------------
# verify workloads


def _verify_inputs(rng):
    """The constructed forms shared by both verify workloads."""
    k2 = field_extend(QQ, [-2, 0, 1])  # Q(sqrt 2)
    k3 = field_extend(QQ, [-2, 0, 0, 1])  # Q(cbrt 2)
    g1, g2 = _nonzero(rng), _nonzero(rng)
    a_q = rng.choice(NON_CUBES)
    a_k2 = k2.element([_nonzero(rng), _nonzero(rng)])
    a_k3 = k3.element([_nonzero(rng), 0, _nonzero(rng)])
    s1, s2 = _nonzero(rng), _nonzero(rng)
    titsq = C.tits_cubic(a_q)
    quat = C.composition_algebra_norm("quaternion", [g1, g2])
    return {
        "det2": C.det_norm(2),
        "det3": C.det_norm(3),
        "det4": C.det_norm(4),
        "quat": quat,
        "oct-split": C.composition_algebra_norm("octonion", [1, 1, 1]),
        "oct-degen": C.composition_algebra_norm("octonion", [-1, -1, -1]),
        "tits-q": titsq,
        "tits-sqrt2": C.tits_cubic(a_k2),
        "tits-cbrt2": C.tits_cubic(a_k3),
        "block-det3": C.scaled_block_sum(C.det_norm(3), [s1, s2]),
        "product": C.product_form([(titsq, 1), (quat, 1)]),
        "power": C.power_form(titsq, 2),
    }


def _verify_jobs(workdir, rng, mode):
    forms = _verify_inputs(rng)
    paths = {
        name: _write(workdir, name + ".json", jsonio.encode_constructed_form(cf))
        for name, cf in forms.items()
    }

    def witness_file(name, w):
        if isinstance(w, W.ScaledWitness):
            payload = jsonio.encode_scaled_witness(w)
        else:
            payload = jsonio.encode_structure_matrices(w)
        return _write(workdir, name + ".witness.json", payload)

    specs = []  # (id, what, form, extra argv, expected verdict or exit)
    for name in ("det2", "det3", "det4", "quat", "oct-split", "oct-degen",
                 "tits-q", "tits-sqrt2", "tits-cbrt2", "block-det3",
                 "product", "power"):
        specs.append(("strong-mult:" + name, "strong-mult", name, [], "holds"))
    for name in ("det3", "det4", "quat", "oct-split", "oct-degen",
                 "tits-q", "tits-sqrt2", "tits-cbrt2"):
        specs.append(("composition:" + name, "composition", name, [], "holds"))
    # det-4 is left out: one symbolic check takes about 49 s.  The split
    # octonion norm is in known_defect_jobs instead.
    for name in ("det2", "det3", "quat", "tits-q", "tits-sqrt2"):
        specs.append(("jordan:" + name, "jordan", name, [], "holds"))
    # phi(M^2 Y) = phi(X)^2 phi(Y) for a strong-multiplicativity witness M.
    for name in ("det3", "quat", "tits-q", "tits-cbrt2", "block-det3"):
        m2 = _mat_power(forms[name].witness.matrix, 2)
        specs.append(("strong-jordan:" + name, "strong-jordan", name,
                      ["--witness", witness_file(name + ".m2", _scaled(m2))], "holds"))
    # similarity: diag(c, c, c, 1, ...) left multiplication scales det-3 by c.
    c = _nonzero(rng, (-5, -4, -3, -2, 2, 3, 4, 5))
    det3 = forms["det3"]
    nx = det3.form.nvars
    sim = det3.similarity_family(RationalFunction.const(QQ, nx, c))
    specs.append(("similarity:det3", "similarity", "det3",
                  ["--witness", witness_file("det3.sim", _scaled(sim)), "--scalar", str(c)],
                  "holds"))
    # twist by mu = -1 in odd degree: phi(-M Y) = -phi(X) phi(Y).
    neg = tuple(tuple(-e for e in row) for row in forms["tits-sqrt2"].witness.matrix)
    specs.append(("twist:tits-sqrt2", "twist", "tits-sqrt2",
                  ["--witness", witness_file("tits-sqrt2.neg", _scaled(neg)), "--mu", "-1"],
                  "holds"))
    # exponent 3: phi(M^3 Y) = phi(X)^3 phi(Y).
    m3 = _mat_power(forms["tits-q"].witness.matrix, 3)
    specs.append(("exponent:tits-q", "exponent", "tits-q",
                  ["--witness", witness_file("tits-q.m3", _scaled(m3)), "--s", "3"], "holds"))
    # tampered witnesses: 6 of the 39 verify jobs
    for name in ("det3", "tits-sqrt2", "block-det3"):
        bad = _tamper_matrix(forms[name].witness.matrix, rng)
        specs.append(("strong-mult-tampered:" + name, "strong-mult", name,
                      ["--witness", witness_file(name + ".bad", _scaled(bad))], "refuted"))
    bad = _tamper_matrix(_mat_power(forms["tits-q"].witness.matrix, 2), rng)
    specs.append(("strong-jordan-tampered:tits-q", "strong-jordan", "tits-q",
                  ["--witness", witness_file("tits-q.m2bad", _scaled(bad))], "refuted"))
    for name in ("quat", "tits-cbrt2"):
        bad = _tamper_structure(forms[name].composition, rng)
        specs.append(("composition-tampered:" + name, "composition", name,
                      ["--witness", witness_file(name + ".bad", bad)], "refuted"))
    if mode == "auto":
        # The invertibility check runs before the mode is chosen, so random
        # mode would time the same 8 x 8 cofactor expansion (about 3-4 s) again.
        sing = _singular_matrix(forms["oct-split"].witness.matrix, _nonzero(rng))
        specs.append(("strong-mult-singular:oct-split", "strong-mult", "oct-split",
                      ["--witness", witness_file("oct-split.singular", _scaled(sing))],
                      "singular"))

    return [_verify_job(jid, what, paths[name], extra, outcome, mode, rng)
            for jid, what, name, extra, outcome in specs]


def _verify_job(jid, what, path, extra, outcome, mode, rng):
    argv = ["verify", what, "--form", path] + extra
    if mode == "random":
        argv += ["--mode", "random", "--seed", str(rng.randrange(1, 10**6)),
                 "--samples", str(RANDOM_SAMPLES)]
    if outcome == "holds":
        expect = {"exit": 0, "verdict": "proved"} if mode == "auto" else {
            "exit": 2, "verdict": "evidence"}
    elif outcome == "refuted":
        expect = {"exit": 1, "verdict": "refuted"}
    else:
        expect = {"exit": 3, "stderr": "identically zero determinant"}
    return Job(jid, argv, expect)


def known_defect_jobs(workdir: str) -> List[Job]:
    """Jobs that formforge answers wrongly today.  They are kept out of the
    timed workloads, whose every job must pass, and check.py reports them.

    `verify jordan` on the split octonion norm must prove: the norm of an
    alternative algebra satisfies N(v w v) = N(v)^2 N(w).  It is refuted in
    both modes because verify_jordan_composition applies 2(v.w).v - w.(v.v)
    to a non-commutative product."""
    rng = random.Random("known-defects")
    cf = C.composition_algebra_norm("octonion", [1, 1, 1])
    path = _write(workdir, "oct-split.json", jsonio.encode_constructed_form(cf))
    return [_verify_job("jordan:oct-split:" + mode, "jordan", path, [], "holds", mode, rng)
            for mode in ("auto", "random")]


def _construct_jobs(rng):
    """Recipes the library does not memoise, with seeded parameters."""
    g = [_nonzero(rng) for _ in range(5)]
    a = rng.choice(NON_CUBES)
    coeffs = ",".join(str(_nonzero(rng)) for _ in range(4))
    specs = [
        ("tits-cubic", ["--param", "a=%d" % a], 3, 3, ("witness", "composition", "algebra")),
        ("pfister", ["--param", "gammas=%d,%d" % (g[0], g[1])], 2, 4,
         ("witness", "composition", "algebra")),
        ("pfister", ["--param", "gammas=%d,%d,%d" % (g[2], g[3], g[4])], 2, 8,
         ("witness", "composition", "algebra")),
        ("block-sum", ["--param", "d=3", "--param", "scalars=%d,%d" % (g[0], g[2])], 3, 18,
         ("witness",)),
        ("cayley-dickson", ["--param", "mu=%d" % g[1]], 4, 8, ()),
        ("structurable", ["--param", "zeta=%d" % g[3]], 4, 20, ()),
        ("diagonal", ["--param", "coeffs=" + coeffs, "--param", "degree=3"], 3, 4, ()),
    ]
    jobs = []
    for i, (kind, params, degree, nvars, carries) in enumerate(specs):
        jobs.append(Job(
            "construct:%s:%d" % (kind, i),
            ["construct", "--kind", kind] + params,
            {"exit": 0, "kind": kind, "degree": degree, "vars": nvars, "carries": carries},
        ))
    return jobs


# ---------------------------------------------------------------------------
# decompose workload


def _unipotent(n, rng):
    """Upper unitriangular with entries +-1 above the diagonal: invertible over
    Z, and dense enough that no variable keeps its own summand."""
    return [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)]
            for i in range(n)]


def _decompose_inputs(rng):
    cubes = list(NON_CUBES)
    rng.shuffle(cubes)
    a1, a2, a3 = cubes[:3]
    diag6 = [_nonzero(rng) for _ in range(6)]
    diag8 = [_nonzero(rng) for _ in range(8)]
    quart = [_nonzero(rng) for _ in range(5)]
    td = [_nonzero(rng) for _ in range(2)]
    aligned = {
        # name: (form, sorted component dims, absolutely indecomposable)
        "diag3-n6": (C.diagonal_form(diag6, 3).form, [1] * 6, None),
        "diag3-n8": (C.diagonal_form(diag8, 3).form, [1] * 8, None),
        "diag4-n5": (C.diagonal_form(quart, 4).form, [1] * 5, None),
        "det3": (C.det_norm(3).form, [9], True),
        "cayley-dickson": (
            C.cayley_dickson_quartic(C.split_jordan_q4(), _nonzero(rng)).form, [8], True),
        "tits-tits": (
            F.orthogonal_sum(C.tits_cubic(a1).form, C.tits_cubic(a2).form), [3, 3], None),
        "tits-diag": (
            F.orthogonal_sum(C.tits_cubic(a3).form, C.diagonal_form(td, 3).form),
            [1, 1, 3], None),
    }
    changed = {}
    for name in ("diag3-n6", "diag3-n8", "diag4-n5", "tits-tits", "tits-diag"):
        phi, dims, absolute = aligned[name]
        f = F.LinearMap.from_rationals(QQ, _unipotent(phi.nvars, rng))
        changed[name + ":basis-changed"] = (F.apply_change_of_basis(phi, f), dims, absolute)
    transfers = {}
    for label, minpoly, n in (("sqrt2", [-2, 0, 1], 3), ("cbrt2", [-2, 0, 0, 1], 2),
                              ("t3-t-3", [-3, -1, 0, 1], 2)):
        k = field_extend(QQ, minpoly)
        m = k.degree
        coeffs = [k.element([_nonzero(rng)] + [rng.choice((0, 1, -1)) for _ in range(m - 1)])
                  for _ in range(n)]
        phi = C.diagonal_form(coeffs, 3, field=k).form
        s = [1] + [0] * (m - 1)  # the coefficient of 1 in the power basis
        transfers["transfer-" + label] = (F.transfer_form(k, s, phi), [m] * n, None)
    albert = C.split_albert_norm().form
    structurable = C.structurable_quartic(
        C.jordan_triple_from_degree3(C.matrix_algebra(3), _nonzero(rng))).form
    return aligned, changed, transfers, {"albert": albert, "structurable": structurable}


def _decompose_jobs(workdir, rng):
    aligned, changed, transfers, radicals = _decompose_inputs(rng)
    jobs = []
    decomposable = {}
    decomposable.update(aligned)
    decomposable.update(changed)
    decomposable.update(transfers)
    for name, (phi, dims, absolute) in decomposable.items():
        path = _write(workdir, name.replace(":", ".") + ".json", jsonio.encode_form(phi))
        expect = {"exit": 0, "dims": sorted(dims)}
        if len(dims) == 1:
            expect["absolute"] = absolute
        jobs.append(Job("decompose:" + name, ["decompose", "--absolute", "--form", path], expect))
        if name in ("diag3-n6", "tits-diag", "tits-tits", "det3"):
            # One-dimensional summands force phi(X) to be a scalar times a
            # cube, which a sum of two or more pieces is not.  Without such
            # summands the procedure has no clause to apply.
            ones = dims.count(1)
            expect_ob = ({"exit": 0, "verdict": "obstructed"} if ones and len(dims) > 1
                         else {"exit": 2, "verdict": "consistent_unknown"})
            expect_ob["dims"] = sorted(dims)
            jobs.append(Job("obstruct:" + name, ["obstruct", "--form", path], expect_ob))
    for name, phi in radicals.items():
        path = _write(workdir, name + ".json", jsonio.encode_form(phi))
        jobs.append(Job("radical:" + name, ["radical", "--form", path],
                        {"exit": 0, "radical_dim": 0}))
    return jobs


# ---------------------------------------------------------------------------


def build_workload(name: str, seed: int, workdir: str) -> List[Job]:
    """Write the inputs of one workload into workdir and return its jobs."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "verify-auto":
        return _construct_jobs(rng) + _verify_jobs(workdir, rng, "auto")
    if name == "verify-random":
        return _verify_jobs(workdir, rng, "random")
    if name == "decompose":
        return _decompose_jobs(workdir, rng)
    raise ValueError("unknown workload %r" % name)


def check_output(job: Job, code: int, payload, stderr: str) -> Optional[str]:
    """None when the job's answer matches its expectation, else the reason."""
    exp = job.expect
    if code != exp["exit"]:
        return "exit %d, expected %d" % (code, exp["exit"])
    if "stderr" in exp:
        return None if exp["stderr"] in stderr else "stderr lacks %r" % exp["stderr"]
    if not isinstance(payload, (dict, list)):
        return "no JSON on stdout"
    if "verdict" in exp and payload.get("verdict") != exp["verdict"]:
        return "verdict %r, expected %r" % (payload.get("verdict"), exp["verdict"])
    if "dims" in exp:
        got = (sorted(c["dim"] for c in payload["components"])
               if "components" in payload else sorted(payload.get("dims", [])))
        if got != exp["dims"]:
            return "component dims %r, expected %r" % (got, exp["dims"])
    if exp.get("absolute") is not None:
        if payload.get("absolutely_indecomposable") is not exp["absolute"]:
            return "absolutely_indecomposable %r, expected %r" % (
                payload.get("absolutely_indecomposable"), exp["absolute"])
    if "radical_dim" in exp and payload.get("dim") != exp["radical_dim"]:
        return "radical dim %r, expected %r" % (payload.get("dim"), exp["radical_dim"])
    if "kind" in exp:
        form = payload.get("form", {})
        if payload.get("provenance", {}).get("kind") != exp["kind"]:
            return "provenance kind %r" % payload.get("provenance", {}).get("kind")
        if (form.get("degree"), form.get("vars")) != (exp["degree"], exp["vars"]):
            return "form degree/vars %r, expected %r" % (
                (form.get("degree"), form.get("vars")), (exp["degree"], exp["vars"]))
        missing = [k for k in exp["carries"] if k not in payload]
        if missing:
            return "constructed form lacks %s" % ", ".join(missing)
    return None
