"""Input-vector generators for experiments, tests, and examples.

Every generator is deterministic given a seed and returns an ``(n, d)``
float array (row ``i`` = input of process ``i``).  The catalogue mirrors
the situations the paper reasons about: benign clustered inputs,
adversarial incorrect inputs far outside the correct cluster, degenerate
geometry (collinear / identical), the binary inputs of Theorem 4, and the
"2f+1 identical" premise of weak optimality part (ii).
"""

from __future__ import annotations

import numpy as np


def gaussian_cluster(
    n: int, d: int, *, center=None, spread: float = 0.5, seed: int = 0
) -> np.ndarray:
    """Inputs scattered normally around a common estimate."""
    rng = np.random.default_rng(seed)
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    return c + spread * rng.standard_normal((n, d))


def uniform_box(
    n: int, d: int, *, lower: float = -1.0, upper: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Inputs uniform in a box — the generic benign workload."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lower, upper, size=(n, d))


def with_outliers(
    inputs: np.ndarray,
    faulty: list[int],
    *,
    magnitude: float = 5.0,
    seed: int = 0,
) -> np.ndarray:
    """Replace the rows of ``faulty`` with far-away incorrect inputs.

    The crash-with-incorrect-inputs model's signature workload: faulty
    processes execute faithfully on values far outside the correct
    cluster, and validity demands the outputs ignore them.
    """
    rng = np.random.default_rng(seed)
    out = np.array(inputs, dtype=float, copy=True)
    d = out.shape[1]
    for pid in faulty:
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        out[pid] = magnitude * direction
    return out


def simplex_corners(n: int, d: int, *, scale: float = 1.0) -> np.ndarray:
    """Inputs on the corners of a simplex, cycling when ``n > d + 1``.

    Maximally spread inputs: the degenerate-case workload of Section 6 —
    at ``n = (d+2)f + 1`` the subset intersection of these collapses
    toward a single point.
    """
    corners = np.vstack([np.zeros(d), np.eye(d)]) * scale
    return corners[np.arange(n) % (d + 1)]


def collinear(n: int, d: int, *, seed: int = 0) -> np.ndarray:
    """Inputs on a random line — degenerate affine geometry in d >= 2."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    offsets = np.sort(rng.uniform(-1.0, 1.0, size=n))
    return offsets[:, None] * direction[None, :]


def identical(n: int, d: int, *, value=None) -> np.ndarray:
    """All processes share one input — the trivial degenerate case."""
    v = np.zeros(d) if value is None else np.asarray(value, dtype=float)
    return np.tile(v, (n, 1))


def binary_line(n: int, *, zeros: int) -> np.ndarray:
    """``zeros`` processes at 0.0 and the rest at 1.0, d = 1 (Theorem 4)."""
    if not 0 <= zeros <= n:
        raise ValueError("zeros must be between 0 and n")
    out = np.ones((n, 1))
    out[:zeros, 0] = 0.0
    return out


def majority_identical(
    n: int, d: int, f: int, *, shared=None, seed: int = 0
) -> np.ndarray:
    """``2f + 1`` identical inputs, remainder random (weak optimality (ii))."""
    rng = np.random.default_rng(seed)
    shared_point = (
        np.zeros(d) if shared is None else np.asarray(shared, dtype=float)
    )
    out = rng.uniform(-1.0, 1.0, size=(n, d))
    out[: 2 * f + 1] = shared_point
    return out


def two_clusters(
    n: int, d: int, *, separation: float = 2.0, spread: float = 0.2, seed: int = 0
) -> np.ndarray:
    """Half the processes around each of two separated centres."""
    rng = np.random.default_rng(seed)
    half = n // 2
    center_a = -0.5 * separation * np.ones(d) / np.sqrt(d)
    center_b = 0.5 * separation * np.ones(d) / np.sqrt(d)
    points = np.empty((n, d))
    points[:half] = center_a + spread * rng.standard_normal((half, d))
    points[half:] = center_b + spread * rng.standard_normal((n - half, d))
    return points


#: Name -> ``(n, d, seed)`` -> inputs array, for the generators defined at
#: every ``(n, d)``: the catalogue ``repro consensus --workload`` and the
#: fuzzer's ``FuzzConfig.workloads`` choose from.
WORKLOADS = {
    "gaussian": lambda n, d, seed: gaussian_cluster(n, d, seed=seed),
    "uniform": lambda n, d, seed: uniform_box(n, d, seed=seed),
    "two-clusters": lambda n, d, seed: two_clusters(n, d, seed=seed),
    "collinear": lambda n, d, seed: collinear(n, d, seed=seed),
    "simplex": lambda n, d, seed: simplex_corners(n, d),
    "identical": lambda n, d, seed: identical(n, d),
}
