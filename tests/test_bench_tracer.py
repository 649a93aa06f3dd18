"""The benchmark's tracer (bench/tracer.py) looks up every function it times
by its formforge name when it is imported, so renaming or removing one of them
breaks the traced benchmark; this test catches that in the unit suite."""

import importlib.util
from pathlib import Path

from formforge import QQ, HomogeneousForm, Polynomial, RationalFunction, witness


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _two_squares():
    x1, x2 = (Polynomial.variable(QQ, 2, i) for i in range(2))
    phi = HomogeneousForm.from_body(2, x1 * x1 + x2 * x2)
    rf = RationalFunction.from_poly
    return phi, ((rf(x1), rf(-x2)), (rf(x2), rf(x1)))


def test_tracer_install_records_engine_spans_and_uninstall_restores():
    tracer = _load_tracer()
    engine = witness.verify_scaled_witness
    t = tracer.Tracer()
    try:
        t.install()
        assert witness.verify_scaled_witness is not engine
        report = witness.verify_strong_multiplicativity(*_two_squares())
    finally:
        t.uninstall()
    assert report.verdict == "proved"
    assert witness.verify_scaled_witness is engine
    names = {span[0] for span in t.spans}
    assert {"witness.verify_scaled_witness", "poly.verify_identity"} <= names
    assert t.counts["witness.verify_calls"] == 1
    assert t.counts["witness.symbolic_calls"] == 1
