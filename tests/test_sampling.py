"""The sample points of random mode are the points randrange draws.

Standard library only, so that it runs under any installed interpreter
without pytest:

    PYTHONPATH=src python tests/test_sampling.py
"""

import random

from formforge.poly import sample_identity

SEEDS = range(50)
HALFWIDTHS = (0, 1, 3, 10**6, 2**64)
SIZES = (0, 1, 7, 40)
SAMPLES = 6


def _drawn_points(nvars, seed, h):
    """The points sample_identity draws, every second one taken as a pole
    and drawn again."""
    points = []

    def agree(pt):
        points.append(pt)
        return None if len(points) % 2 else True

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
            sample_identity(lambda pt: True, n, 1, 1, 0, -1)
        except ValueError:
            continue
        raise AssertionError("a negative halfwidth was accepted")


if __name__ == "__main__":
    import sys

    test_sample_points_are_the_randrange_points()
    test_negative_halfwidth_is_refused_as_randrange_refuses_it()
    print("same points as randrange on Python %s: %d seeds, halfwidths %s, sizes %s"
          % (sys.version.split()[0], len(SEEDS), HALFWIDTHS, SIZES))
