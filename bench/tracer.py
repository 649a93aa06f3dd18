"""Layer spans and counters recorded from outside the formforge package.

`Tracer.install` wraps each traced function wherever it is looked up: every
formforge module attribute that holds the function is replaced, so names
imported with ``from .poly import ...`` are covered, and methods are patched
on their class.  Each call records a span (name, start, end, parent span, job
id); spans stay in memory until `write_spans`.  Scalar arithmetic in
`coeffield` is counted, not timed.  `uninstall` restores every original.

A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import os
import sys
from collections import defaultdict
from time import perf_counter

from formforge import cli, constructions, decompose, forms, jsonio, linalg, poly, witness
from formforge.coeffield import EtaleAlgebra, FieldElement, QQ, RationalField

FUNCTIONS = [
    ("cli.main", cli.main),
    ("jsonio.loads_file", jsonio.loads_file),
    ("jsonio.decode_form", jsonio.decode_form),
    ("jsonio.decode_scaled_witness", jsonio.decode_scaled_witness),
    ("jsonio.decode_structure_matrices", jsonio.decode_structure_matrices),
    ("jsonio.decode_algebra", jsonio.decode_algebra),
    ("jsonio.decode_witness_payload", jsonio.decode_witness_payload),
    ("jsonio.encode_constructed_form", jsonio.encode_constructed_form),
    ("jsonio.encode_verification_report", jsonio.encode_verification_report),
    ("jsonio.encode_obstruction_report", jsonio.encode_obstruction_report),
    ("jsonio.encode_decomposition", jsonio.encode_decomposition),
    ("jsonio.dumps", jsonio.dumps),
    ("constructions.diagonal_form", constructions.diagonal_form),
    ("constructions.monomial_form", constructions.monomial_form),
    ("constructions.product_form", constructions.product_form),
    ("constructions.power_form", constructions.power_form),
    ("constructions.scaled_block_sum", constructions.scaled_block_sum),
    ("constructions.det_norm", constructions.det_norm),
    ("constructions.composition_algebra_norm", constructions.composition_algebra_norm),
    ("constructions.tits_cubic", constructions.tits_cubic),
    ("constructions.split_albert_norm", constructions.split_albert_norm),
    ("constructions.matrix_algebra", constructions.matrix_algebra),
    ("constructions.jordan_triple_from_degree3", constructions.jordan_triple_from_degree3),
    ("constructions.structurable_quartic", constructions.structurable_quartic),
    ("constructions.split_jordan_q4", constructions.split_jordan_q4),
    ("constructions.cayley_dickson_quartic", constructions.cayley_dickson_quartic),
    ("constructions.norm_compose", constructions.norm_compose),
    ("witness.verify_scaled_witness", witness.verify_scaled_witness),
    ("witness.verify_composition", witness.verify_composition),
    ("witness.verify_jordan_composition", witness.verify_jordan_composition),
    ("witness.verify_strong_multiplicativity", witness.verify_strong_multiplicativity),
    ("witness.verify_strong_jordan_multiplicativity",
     witness.verify_strong_jordan_multiplicativity),
    ("witness.verify_exponent", witness.verify_exponent),
    ("witness.verify_similarity", witness.verify_similarity),
    ("witness.verify_mu_twist", witness.verify_mu_twist),
    ("witness.krull_schmidt_obstruction", witness.krull_schmidt_obstruction),
    ("poly.compose_estimate", poly.compose_estimate),
    ("poly.ring_matrix_determinant", poly.ring_matrix_determinant),
    ("poly.verify_identity", poly.verify_identity),
    ("poly.substitute_linear", poly.substitute_linear),
    ("poly.is_dth_power", poly.is_dth_power),
    ("linalg.rref", linalg.rref),
    ("linalg.solve", linalg.solve),
    ("linalg.nullspace", linalg.nullspace),
    ("linalg.mat_mul", linalg.mat_mul),
    ("linalg.determinant", linalg.determinant),
    ("forms.polarize", forms.polarize),
    ("forms.radical", forms.radical),
    ("forms.substitute_vectors", forms.substitute_vectors),
    ("decompose.center_algebra", decompose.center_algebra),
    ("decompose.primitive_idempotents", decompose.primitive_idempotents),
    ("decompose.krull_schmidt_decompose", decompose.krull_schmidt_decompose),
    ("decompose.is_absolutely_indecomposable", decompose.is_absolutely_indecomposable),
]

METHODS = [
    ("poly.mul", poly.Polynomial, "__mul__"),
    ("poly.add", poly.Polynomial, "__add__"),
    ("poly.add", poly.Polynomial, "__sub__"),
    ("poly.compose", poly.Polynomial, "compose"),
    ("poly.eval", poly.Polynomial, "eval"),
]

# (counter, class, method, only count elements of the rationals)
COUNTED = [
    ("coeffield.q_add_calls", FieldElement, "__add__", True),
    ("coeffield.q_add_calls", FieldElement, "__sub__", True),
    ("coeffield.q_mul_calls", RationalField, "_mul", False),
    ("coeffield.q_inv_calls", RationalField, "_inv", False),
    ("coeffield.etale_mul_calls", EtaleAlgebra, "_mul", False),
    ("coeffield.etale_inv_calls", EtaleAlgebra, "_inv", False),
]


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "formforge" or name.startswith("formforge."))]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.counts = defaultdict(int)
        self.job = None
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        self._engines = {}  # open engine span index -> what its children report
        self._estimate_pairs = []  # (estimate, compose terms) per symbolic engine call

    # -- installation -------------------------------------------------------

    def install(self):
        for name, fn in FUNCTIONS:
            wrapper = self._span(name, fn)
            for module in _modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self._span(name, getattr(cls, attr)))
        for counter, cls, attr, q_only in COUNTED:
            self._patch(cls, attr, self._counted(counter, getattr(cls, attr), q_only))
        import sympy

        self._patch(sympy.Poly, "factor_list",
                    self._span("decompose.sympy_factor", sympy.Poly.factor_list))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counted(self, counter, fn, q_only):
        counts = self.counts

        if q_only:
            def wrapper(a, b):
                if a.field is QQ:
                    counts[counter] += 1
                return fn(a, b)
        else:
            def wrapper(*args):
                counts[counter] += 1
                return fn(*args)
        return wrapper

    def _span(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self
        on_call = getattr(self, "_enter_" + name.replace(".", "_"), None)
        on_return = getattr(self, "_leave_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            if on_call is not None:
                on_call(idx, args)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job)
            if on_return is not None:
                on_return(idx, parent, args, result)
            return result

        return wrapper

    # -- counters taken at the layer boundaries -------------------------------

    # The three verification engines; every public verify_* function ends in
    # one of them.
    def _enter_witness_verify_scaled_witness(self, idx, args):
        self._engines[idx] = {"name": "witness.verify_scaled_witness"}

    def _enter_witness_verify_composition(self, idx, args):
        self._engines[idx] = {"name": "witness.verify_composition"}

    def _enter_witness_verify_jordan_composition(self, idx, args):
        self._engines[idx] = {"name": "witness.verify_jordan_composition"}

    def _leave_engine(self, idx, parent, args, report):
        c = self.counts
        engine = self._engines.pop(idx)
        c["witness.verify_calls"] += 1
        if report.mode == "symbolic":
            c["witness.symbolic_calls"] += 1
            if "estimate" in engine:
                self._estimate_pairs.append((engine["estimate"], engine["compose_terms"]))
            return
        # An evidence report holds the samples drawn.  A refuted one holds the
        # samples asked for; only its refuting sample is known to be drawn.
        c["witness.samples"] += report.samples if report.verdict == "evidence" else 1
        c["witness.random_s"] += self.spans[idx][2] - self.spans[idx][1]

    _leave_witness_verify_scaled_witness = _leave_engine
    _leave_witness_verify_composition = _leave_engine
    _leave_witness_verify_jordan_composition = _leave_engine

    def _leave_poly_compose_estimate(self, idx, parent, args, result):
        engine = self._engines.get(parent)
        if engine is not None and engine["name"] != "witness.verify_scaled_witness":
            engine["estimate"] = result
            engine["compose_terms"] = 0

    def _leave_poly_compose(self, idx, parent, args, result):
        self.counts["poly.compose_terms_out"] += len(result.terms)
        engine = self._engines.get(parent)
        if engine is not None and "compose_terms" in engine:
            engine["compose_terms"] += len(result.terms)

    def _leave_poly_mul(self, idx, parent, args, result):
        c = self.counts
        c["poly.mul_terms_out"] += len(result.terms)
        c["poly.mul_term_products"] += len(args[0].terms) * len(args[1].terms)

    def _leave_poly_eval(self, idx, parent, args, result):
        self.counts["poly.eval_terms"] += len(args[0].terms)

    def _leave_linalg_rref(self, idx, parent, args, result):
        rows = args[1]
        self.counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _leave_jsonio_loads_file(self, idx, parent, args, result):
        self.counts["jsonio.decode_bytes"] += os.path.getsize(args[0])

    def _leave_jsonio_dumps(self, idx, parent, args, result):
        self.counts["jsonio.encode_bytes"] += len(result.encode("utf-8"))

    def _leave_decompose_center_algebra(self, idx, parent, args, result):
        self.counts["decompose.center_dim"] += result.dim

    def _leave_decompose_krull_schmidt_decompose(self, idx, parent, args, result):
        self.counts["decompose.components"] += len(result.components)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Self time summed per span name."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _job in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, t0, t1, _parent, _job) in enumerate(self.spans):
            out[name] += (t1 - t0) - covered[i]
            calls[name] += 1
        return out, calls

    def estimate_ratio(self):
        est = sum(e for e, _ in self._estimate_pairs)
        actual = sum(a for _, a in self._estimate_pairs)
        return est / actual if actual else 0.0

    def write_spans(self, path):
        """One line per span: index, name, start, end (microseconds from the
        first span), parent index, job id."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\tjob\n")
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write("%d\t%s\t%.1f\t%.1f\t%d\t%s\n" % (
                    i, name, (t0 - base) * 1e6, (t1 - base) * 1e6, parent, job))
