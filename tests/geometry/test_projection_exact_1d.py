"""The 1-d projection against an exact rational clamp.

A point with one coordinate is projected by clamping it to the interval
the vertices span.  On every corpus case the float distance must equal
the correctly rounded exact distance, and the projection the exact
clamp.
"""

import numpy as np
import pytest

from repro.geometry.projection import distance_to_hull, project_onto_hull
from tests.oracles.exact import interval_distance


def corpus_1d() -> list[tuple[str, float, list[float]]]:
    """``(kind, point, vertices)`` cases: grid, duplicates, singletons, ulps, 1e6."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(60):
        verts = (rng.integers(-32, 33, size=int(rng.integers(2, 7))) / 8.0).tolist()
        cases.append(("grid", float(rng.integers(-48, 49)) / 8.0, verts))
    for _ in range(30):
        a, b = (rng.integers(-16, 17, size=2) / 4.0).tolist()
        verts = [a] * int(rng.integers(1, 4)) + [b] * int(rng.integers(1, 4))
        point = float(rng.choice([a, b, (a + b) / 2, a - 1.0, b + 0.75]))
        cases.append(("duplicates", point, verts))
    for _ in range(20):
        v = float(rng.uniform(-5, 5))
        cases.append(("single", float(rng.uniform(-5, 5)), [v]))
        cases.append(("single", v, [v, v, v]))
    for lo, hi in ((0.0, 1.0), (-0.3, 0.7), (-1e-3, 2.5), (1.0, 1.0 + 2**-40), (-7.25, -7.0)):
        verts = [lo, (lo + hi) / 2, hi]
        for end in (lo, hi):
            for toward in (-np.inf, np.inf):
                cases.append(("ulp", float(np.nextafter(end, toward)), verts))
    for _ in range(40):
        verts = (1e6 + rng.uniform(-1, 1, size=int(rng.integers(2, 6)))).tolist()
        point = 1e6 + float(rng.uniform(-2, 2))
        cases.append(("translated", point, verts))
        cases.append(("translated", float(np.nextafter(max(verts), np.inf)), verts))
    return cases


CORPUS = corpus_1d()


def test_distance_is_the_correctly_rounded_exact_distance():
    wrong = [
        (kind, point, vertices)
        for kind, point, vertices in CORPUS
        if distance_to_hull([point], np.array(vertices).reshape(-1, 1))
        != float(interval_distance(point, vertices))
    ]
    assert wrong == []


def test_projection_is_the_exact_clamp():
    for kind, point, vertices in CORPUS:
        verts = np.array(vertices).reshape(-1, 1)
        projection, lam = project_onto_hull([point], verts)
        case = (kind, point, vertices)
        assert projection.tolist() == [min(max(point, min(vertices)), max(vertices))], case
        assert lam.shape == (len(vertices),) and lam.min() >= 0.0, case
        assert lam.sum() == pytest.approx(1.0, abs=1e-15), case
        support = set(np.nonzero(lam)[0].tolist())
        assert support <= {int(np.argmin(verts)), int(np.argmax(verts))}, case
        scale = max(abs(v) for v in vertices + [point])
        assert abs(float(lam @ verts[:, 0]) - projection[0]) <= 4 * np.spacing(scale), case


def test_corpus_covers_every_kind():
    kinds = {kind for kind, _, _ in CORPUS}
    assert kinds == {"grid", "duplicates", "single", "ulp", "translated"}
    ulp_cases = [(p, v) for kind, p, v in CORPUS if kind == "ulp"]
    assert any(interval_distance(p, v) > 0 for p, v in ulp_cases)
    assert any(interval_distance(p, v) == 0 for p, v in ulp_cases)
