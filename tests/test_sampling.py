"""The sample points of random mode are the points randrange draws, in
batches of at most SAMPLE_BATCH points after a first point alone, and the
batched loop reports what checking one point at a time reports.

The tests of points and batches need the standard library only, so that
they run under any installed interpreter without pytest:

    PYTHONPATH=src python tests/test_sampling.py

The comparison with the one-point loop needs hypothesis (the `test` extra).
"""

import operator
import random

from formforge import QQ, Polynomial, field_extend
from formforge.poly import SAMPLE_BATCH, EvalProgram, sample_identity
from oracles import generic_eval, sample_one_at_a_time

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests of points and batches run without it
    st = None

SEEDS = range(50)
HALFWIDTHS = (0, 1, 3, 10**6, 2**64)
SIZES = (0, 1, 7, 40)
SAMPLES = 6


def _drawn_points(nvars, seed, h):
    """The points sample_identity draws, every second one taken as a pole
    and drawn again."""
    points = []

    def agree(coords, size):
        answers = []
        for pt in zip(*coords) if coords else [()] * size:
            points.append(pt)
            answers.append(None if len(points) % 2 else True)
        return answers

    sample_identity(agree, nvars, 1, SAMPLES, seed, h)
    return points


def test_sample_points_are_the_randrange_points():
    for seed in SEEDS:
        for h in HALFWIDTHS:
            for n in SIZES:
                rng = random.Random(seed)
                expected = [tuple(map(rng.randrange, [-h] * n, [h + 1] * n))
                            for _ in range(2 * SAMPLES)]
                assert _drawn_points(n, seed, h) == expected, (seed, h, n)


def test_negative_halfwidth_is_refused_as_randrange_refuses_it():
    for n in (0, 3):
        try:
            sample_identity(lambda coords, size: [True] * size, n, 1, 1, 0, -1)
        except ValueError:
            continue
        raise AssertionError("a negative halfwidth was accepted")


def test_batches_are_capped_and_the_first_point_is_alone():
    """10,000 samples of (x + y)^2 = x^2 + 2xy + y^2: the first batch is
    one point, none is above SAMPLE_BATCH, and every point drawn is a
    sample."""
    x, y = (Polynomial.variable(QQ, 2, i) for i in range(2))
    prog = EvalProgram([(x + y) * (x + y), x * x + (x * y).scale(2) + y * y])
    sizes = []

    def agree(coords, size):
        sizes.append(size)
        (lhs,), (rhs,) = prog.at([[c] for c in coords], size)
        return list(map(operator.eq, lhs, rhs))

    report = sample_identity(agree, 2, 2, 10_000, 3, 100)
    assert report.verdict == "evidence" and report.samples == 10_000
    assert sizes[0] == 1
    assert max(sizes) == SAMPLE_BATCH
    assert sum(sizes) == 10_000


if st is not None:
    _SQRT2 = field_extend(QQ, [-2, 0, 1])

    @st.composite
    def _sampling_case(draw):
        """An identity lhs == rhs with a denominator q, over Q or Q(sqrt 2),
        on a small box, so that poles are frequent.  rhs is lhs, or lhs
        plus 1 (refuted at the first point off q = 0), or lhs plus the
        product of x_0 - c over four of c = -2, ..., 2 (zero at every point
        of a box of halfwidth 2 but those with x_0 the fifth, so often
        refuted at a later point); q is 1, x_i - c (a hyperplane of poles),
        or x_0 (x_0^2 - 1) (x_0^2 - 4), which vanishes on every box of
        halfwidth at most 2, so that both loops give up."""
        field = draw(st.sampled_from((QQ, _SQRT2)))
        n = draw(st.integers(1, 3))
        x = [Polynomial.variable(field, n, i) for i in range(n)]

        def const(c):
            return Polynomial.const(field, n, field.from_rational(c))

        def element():
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            return field.from_rational(a) if field == QQ else field.element([a, b])

        lhs = const(0)
        for _ in range(draw(st.integers(1, 4))):
            term = Polynomial.const(field, n, element())
            for _ in range(draw(st.integers(0, 3))):
                term = term * x[draw(st.integers(0, n - 1))]
            lhs = lhs + term
        kind = draw(st.sampled_from(("holds", "everywhere", "rarely")))
        diff = const(0) if kind == "holds" else const(1)
        if kind == "rarely":
            off = draw(st.integers(-2, 2))
            for c in range(-2, 3):
                if c != off:
                    diff = diff * (x[0] - const(c))
        rhs = lhs + diff
        q = draw(st.sampled_from(("one", "hyperplane", "box")))
        if q == "one":
            den = const(1)
        elif q == "hyperplane":
            den = x[draw(st.integers(0, n - 1))] - const(draw(st.integers(-2, 2)))
        else:
            den = x[0] * (x[0] * x[0] - const(1)) * (x[0] * x[0] - const(4))
        h = draw(st.sampled_from((0, 1, 2, 2, 10)))
        return field, lhs, rhs, den, h, draw(st.integers(1, 80)), draw(st.integers(0, 10**6))

    def _outcome(run):
        try:
            return run()
        except RuntimeError as exc:
            return str(exc)

    @settings(max_examples=150, deadline=None)
    @given(_sampling_case())
    def test_batched_loop_reports_what_the_one_point_loop_reports(case):
        """Field for field the same IdentityReport, or the same error after
        50 * samples draws, from the batched loop on a program and from the
        one-point loop on field-element evaluation."""
        field, lhs, rhs, den, h, samples, seed = case
        n, degree = lhs.nvars, max(lhs.total_degree(), rhs.total_degree(), 0)
        prog = EvalProgram([den, lhs, rhs])

        def batched(coords, size):
            d, a, b = prog.at([[c] for c in coords], size)
            # the flat coordinates, point by point
            d, a, b = map(any, zip(*d)), zip(*a), zip(*b)
            return [same if v else None for v, same in zip(d, map(operator.eq, a, b))]

        def one(pt):
            pt = [field.from_rational(c) for c in pt]
            if generic_eval(den, pt).is_zero():
                return None
            return generic_eval(lhs, pt) == generic_eval(rhs, pt)

        got = _outcome(lambda: sample_identity(batched, n, degree, samples, seed, h))
        want = _outcome(lambda: sample_one_at_a_time(one, n, degree, samples, seed, h))
        assert got == want


if __name__ == "__main__":
    import sys

    test_sample_points_are_the_randrange_points()
    test_negative_halfwidth_is_refused_as_randrange_refuses_it()
    test_batches_are_capped_and_the_first_point_is_alone()
    print("same points as randrange on Python %s: %d seeds, halfwidths %s, sizes %s"
          % (sys.version.split()[0], len(SEEDS), HALFWIDTHS, SIZES))
