"""The 1-d Hausdorff entry points against an exact rational reference.

In 1-d every polytope is an interval, and the directed distance from one
to another is the largest exact distance of a source vertex to the target
interval.  The reference reads the vertices of the polytopes the kernel
is given (the 1-d hull merges values closer than ``ABS_TOL``).  On every
case the float result must equal the correctly rounded exact one,
including gaps so small or so large that squaring them underflows or
overflows.
"""

from fractions import Fraction

import numpy as np

from repro.geometry.hausdorff import (
    directed_hausdorff,
    disagreement_diameter,
    hausdorff_distance,
)
from repro.geometry.polytope import ConvexPolytope
from tests.geometry.test_projection_exact_1d import CORPUS
from tests.oracles.exact import interval_distance
from tests.oracles.hausdorff import (
    directed_hausdorff_scalar,
    disagreement_diameter_scalar,
    hausdorff_distance_scalar,
)

#: ``(source values, target values)`` pairs whose gaps square to a
#: subnormal, to zero or to infinity.
EXTREME = [
    ([1e-170], [0.0]),
    ([1e-160], [0.0]),
    ([1e-170, 1.0], [0.0, 1.0]),
    ([2e154], [0.0]),
    ([-2e154, 1.0], [0.0, 1.0]),
    ([5e-324], [0.0, -1.0]),
]

CASES = [([point], vertices) for _, point, vertices in CORPUS] + EXTREME


def _interval(values) -> ConvexPolytope:
    return ConvexPolytope.from_points(np.array(values, dtype=float).reshape(-1, 1))


def exact_directed(source: ConvexPolytope, target: ConvexPolytope) -> Fraction:
    ends = target.vertices[:, 0].tolist()
    return max(interval_distance(v, ends) for v in source.vertices[:, 0].tolist())


def exact_hausdorff(a: ConvexPolytope, b: ConvexPolytope) -> Fraction:
    return max(exact_directed(a, b), exact_directed(b, a))


def test_directed_hausdorff_is_correctly_rounded():
    wrong = []
    for source, target in CASES:
        a, b = _interval(source), _interval(target)
        if directed_hausdorff(a, b) != float(exact_directed(a, b)):
            wrong.append((source, target))
    assert wrong == []


def test_hausdorff_distance_is_correctly_rounded():
    wrong = []
    for source, target in CASES:
        a, b = _interval(source), _interval(target)
        if hausdorff_distance(a, b) != float(exact_hausdorff(a, b)):
            wrong.append((source, target))
    assert wrong == []


def test_disagreement_diameter_is_correctly_rounded():
    wrong = []
    for source, target in CASES:
        members = [_interval(m) for m in (source, target, source, [0.0])]
        exact = max(exact_hausdorff(a, b) for a in members for b in members)
        if disagreement_diameter(members) != float(exact):
            wrong.append((source, target))
    assert wrong == []


def test_extreme_gaps_match_the_scalar_oracles():
    for source, target in EXTREME:
        a, b = _interval(source), _interval(target)
        assert directed_hausdorff(a, b) == directed_hausdorff_scalar(a, b)
        assert hausdorff_distance(a, b) == hausdorff_distance_scalar(a, b)
        members = [a, b, _interval([0.0])]
        assert disagreement_diameter(members) == disagreement_diameter_scalar(members)
