"""The :class:`ConvexPolytope` value type.

A ``ConvexPolytope`` is the process state of Algorithm CC: ``h_i[t]`` in the
paper.  It is an immutable convex polytope in d-dimensional Euclidean space
stored in minimal vertex representation (V-rep), with a lazily computed and
cached halfspace representation (H-rep) for the operations that need one.

Degenerate polytopes — single points, segments in the plane, flat polytopes
in 3-space — are first-class citizens; the paper's degenerate-case analysis
(Section 6) shows the output *can* be a single point at the resilience
bound ``n = (d+2)f + 1``, so the representation cannot assume full
dimension.  Emptiness is also representable (zero vertices) because the
subset-hull intersection of line 5 is empty when ``n`` is below the bound;
the consensus layer uses this to demonstrate the necessity of Eq. (2).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError, EmptyPolytopeError
from .hull import hull_vertices
from .linalg import affine_chart, affine_rank, as_points_array
from .projection import distance_to_hull, point_in_hull, project_onto_hull
from .tolerances import MEMBERSHIP_TOL


class ConvexPolytope:
    """An immutable convex polytope in ``dim``-dimensional space.

    Construct via :meth:`from_points` (computes the hull of arbitrary
    points), :meth:`from_interval` (1-d fast path), :meth:`singleton`, or
    :meth:`empty`.  The raw constructor is intended for internal use: it
    hulls its input unless ``_trusted=True`` asserts that the vertex set
    is already minimal.
    """

    __slots__ = ("_vertices", "_dim", "__dict__")

    def __init__(self, vertices: np.ndarray, dim: int, *, _trusted: bool = False):
        verts = np.asarray(vertices, dtype=float)
        if verts.size == 0:
            verts = verts.reshape(0, dim)
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise DimensionMismatchError(
                f"vertex array of shape {verts.shape} does not match dim={dim}"
            )
        if not _trusted:
            verts = hull_vertices(verts) if verts.shape[0] else verts
        verts.setflags(write=False)
        self._vertices = verts
        self._dim = int(dim)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points, dim: int | None = None) -> "ConvexPolytope":
        """Convex hull of ``points`` (the paper's ``H(X)``)."""
        pts = as_points_array(points, dim=dim)
        if pts.shape[0] == 0:
            if dim is None:
                raise ValueError("dim required to build an empty polytope")
            return cls.empty(dim)
        verts = hull_vertices(pts)
        return cls(verts, pts.shape[1], _trusted=True)

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> "ConvexPolytope":
        """1-d polytope: the closed interval ``[lo, hi]``."""
        if hi < lo:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        if hi == lo:
            return cls(np.array([[float(lo)]]), 1, _trusted=True)
        return cls(np.array([[float(lo)], [float(hi)]]), 1, _trusted=True)

    @classmethod
    def singleton(cls, point) -> "ConvexPolytope":
        """Polytope consisting of a single point."""
        p = np.asarray(point, dtype=float).reshape(1, -1)
        return cls(p, p.shape[1], _trusted=True)

    @classmethod
    def empty(cls, dim: int) -> "ConvexPolytope":
        """The empty polytope in ``dim`` dimensions."""
        return cls(np.zeros((0, dim)), dim, _trusted=True)

    @classmethod
    def unit_cube(cls, dim: int) -> "ConvexPolytope":
        """The unit hypercube ``[0, 1]^dim`` (testing / workload helper)."""
        corners = np.array(
            [[(idx >> b) & 1 for b in range(dim)] for idx in range(1 << dim)],
            dtype=float,
        )
        return cls.from_points(corners)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """Minimal vertex array, shape ``(m, dim)`` (read-only)."""
        return self._vertices

    @property
    def dim(self) -> int:
        """Ambient dimension ``d``."""
        return self._dim

    @property
    def num_vertices(self) -> int:
        return self._vertices.shape[0]

    @property
    def is_empty(self) -> bool:
        return self._vertices.shape[0] == 0

    @property
    def is_point(self) -> bool:
        return self._vertices.shape[0] == 1

    @cached_property
    def affine_dim(self) -> int:
        """Affine dimension of the polytope (−1 for empty, 0 for a point)."""
        if self.is_empty:
            return -1
        return affine_rank(self._vertices)

    @cached_property
    def centroid(self) -> np.ndarray:
        """Arithmetic mean of the vertices (a point inside the polytope)."""
        self._require_nonempty("centroid")
        return self._vertices.mean(axis=0)

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    def contains_point(self, point, tol: float = MEMBERSHIP_TOL) -> bool:
        """Approximate membership test (distance to hull <= scaled tol)."""
        if self.is_empty:
            return False
        return point_in_hull(point, self._vertices, tol=tol)

    def distance_to_point(self, point) -> float:
        """Euclidean distance from ``point`` to this polytope (0 if inside)."""
        self._require_nonempty("distance_to_point")
        return distance_to_hull(point, self._vertices)

    def closest_point_to(self, point) -> np.ndarray:
        """The point of this polytope closest to ``point``."""
        self._require_nonempty("closest_point_to")
        projection, _ = project_onto_hull(point, self._vertices)
        return projection

    def support(self, direction) -> float:
        """Support function ``max_{x in P} <direction, x>``."""
        self._require_nonempty("support")
        direction_arr = np.asarray(direction, dtype=float).reshape(-1)
        if direction_arr.size != self._dim:
            raise DimensionMismatchError(
                f"direction of size {direction_arr.size} in dim {self._dim}"
            )
        return float(np.max(self._vertices @ direction_arr))

    def support_point(self, direction) -> np.ndarray:
        """A vertex attaining the support function in ``direction``."""
        self._require_nonempty("support_point")
        direction_arr = np.asarray(direction, dtype=float).reshape(-1)
        idx = int(np.argmax(self._vertices @ direction_arr))
        return self._vertices[idx].copy()

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as ``(lower, upper)`` corner arrays."""
        self._require_nonempty("bounding_box")
        return self._vertices.min(axis=0), self._vertices.max(axis=0)

    @cached_property
    def diameter(self) -> float:
        """Largest pairwise vertex distance (the polytope's diameter)."""
        if self.is_empty:
            return 0.0
        if self.num_vertices == 1:
            return 0.0
        verts = self._vertices
        diff = verts[:, None, :] - verts[None, :, :]
        return float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diff, diff))))

    def volume(self) -> float:
        """Full-dimensional Lebesgue volume (0 for lower-dimensional sets)."""
        from .volume import polytope_volume  # deferred: volume builds on us

        return polytope_volume(self)

    def measure(self) -> float:
        """k-dimensional measure within the polytope's own affine hull."""
        from .volume import polytope_measure

        return polytope_measure(self)

    def interval(self) -> tuple[float, float]:
        """For 1-d polytopes: the ``(lo, hi)`` endpoints."""
        if self._dim != 1:
            raise DimensionMismatchError("interval() requires a 1-d polytope")
        self._require_nonempty("interval")
        vals = self._vertices[:, 0]
        return float(vals.min()), float(vals.max())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translate(self, offset) -> "ConvexPolytope":
        off = np.asarray(offset, dtype=float).reshape(-1)
        if off.size != self._dim:
            raise DimensionMismatchError("offset dimension mismatch")
        if self.is_empty:
            return self
        return ConvexPolytope(self._vertices + off, self._dim, _trusted=True)

    def scale(self, factor: float, center=None) -> "ConvexPolytope":
        """Scale about ``center`` (default: the centroid)."""
        if self.is_empty:
            return self
        c = self.centroid if center is None else np.asarray(center, dtype=float)
        return ConvexPolytope(
            c + factor * (self._vertices - c), self._dim, _trusted=True
        )

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def contains_polytope(self, other: "ConvexPolytope", tol: float = MEMBERSHIP_TOL) -> bool:
        """True when every vertex of ``other`` lies in this polytope."""
        self._check_same_dim(other)
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return all(self.contains_point(v, tol=tol) for v in other.vertices)

    def approx_equal(self, other: "ConvexPolytope", tol: float = MEMBERSHIP_TOL) -> bool:
        """Mutual containment up to ``tol`` (set equality, approximately)."""
        self._check_same_dim(other)
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return self.contains_polytope(other, tol=tol) and other.contains_polytope(
            self, tol=tol
        )

    def sample_vertices_mixture(self, weights: Iterable[float]) -> np.ndarray:
        """Convex combination of the vertices with the given ``weights``."""
        self._require_nonempty("sample_vertices_mixture")
        w = np.asarray(list(weights), dtype=float)
        if w.size != self.num_vertices:
            raise ValueError(
                f"expected {self.num_vertices} weights, got {w.size}"
            )
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a convex combination")
        return w @ self._vertices

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _require_nonempty(self, op: str) -> None:
        if self.is_empty:
            raise EmptyPolytopeError(f"{op} undefined for the empty polytope")

    def _check_same_dim(self, other: "ConvexPolytope") -> None:
        if self._dim != other._dim:
            raise DimensionMismatchError(
                f"polytope dims differ: {self._dim} vs {other._dim}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return f"ConvexPolytope.empty(dim={self._dim})"
        return (
            f"ConvexPolytope(dim={self._dim}, vertices={self.num_vertices}, "
            f"affine_dim={self.affine_dim})"
        )

    def affine_chart(self):
        """Chart of this polytope's affine hull (see :mod:`linalg`)."""
        self._require_nonempty("affine_chart")
        return affine_chart(self._vertices)

    @cached_property
    def _hrep(self) -> tuple[np.ndarray, np.ndarray]:
        from .halfspaces import hrep_of_hull  # deferred: halfspaces builds on us

        return hrep_of_hull(self._vertices)

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached halfspace representation ``(A, b)``: ``{x : A x <= b}``.

        Degenerate polytopes yield equality pairs for their affine hull
        (see :func:`repro.geometry.halfspaces.hrep_of_hull`).  Computed on
        first use and cached — the V-rep is immutable.
        """
        self._require_nonempty("hrep")
        a, b = self._hrep
        return a.copy(), b.copy()

    def violation(self, points) -> float | np.ndarray:
        """Max halfspace violation ``max(A x - b)`` (<= 0 means inside).

        An H-rep-based alternative to :meth:`distance_to_point`: cheap
        per query once the H-rep is cached, and signed (negative values
        measure interior margin).  One point gives a float; a ``(k, d)``
        array gives one violation per row, from one matrix product.
        """
        self._require_nonempty("violation")
        pts = np.asarray(points, dtype=float)
        a, b = self._hrep
        if pts.ndim == 2:
            if pts.shape[1] != self._dim:
                raise DimensionMismatchError("point dimension mismatch")
            return np.max(pts @ a.T - b, axis=1)
        p = pts.reshape(-1)
        if p.size != self._dim:
            raise DimensionMismatchError("point dimension mismatch")
        return float(np.max(a @ p - b))
