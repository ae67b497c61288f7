"""Computational-geometry substrate for convex hull consensus.

This package implements every geometric primitive the paper treats as a
mathematical given: convex hulls ``H(X)``, the weighted polytope
combination ``L`` (Definition 2), subset-hull intersections (line 5 /
Eq. 21), Hausdorff distance (Eq. 1), Tverberg partitions (Theorem 5), and
supporting machinery (H-representations, projections, depth, volume,
sampling) — all on numpy/scipy, with explicit degeneracy handling.
"""

from .batch import batch_directed_hausdorff, batch_disagreement_diameter
from .cache import PERF, PerfCounters, cache_stats, clear_geometry_caches
from .combination import (
    equal_weight_combination,
    linear_combination,
    stochastic_row_combination,
    validate_weights,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyPolytopeError,
    GeometryError,
    HullComputationError,
    InfeasibleRegionError,
    SolverError,
)
from .halfspaces import (
    chebyshev_center,
    dedupe_halfspaces,
    feasible_point,
    hrep_of_hull,
    linear_maximize,
    vertices_of_halfspace_system,
)
from .hausdorff import (
    directed_hausdorff,
    disagreement_diameter,
    hausdorff_distance,
    hausdorff_to_point,
)
from .hull import hull_vertices, hull_vertices_1d, hull_vertices_2d
from .intersection import (
    depth_region_halfspaces,
    intersect_hulls,
    intersect_subset_hulls,
    optimal_polytope_iz,
    subset_count,
    subset_intersection_is_nonempty,
)
from .linalg import AffineChart, affine_chart, affine_rank, as_points_array
from .operations import (
    box,
    cross_polytope,
    dilate,
    interpolate,
    intersect_polytopes,
    minkowski_sum,
    regular_polygon,
)
from .polytope import ConvexPolytope
from .projection import (
    distance_to_hull,
    point_in_hull,
    project_onto_hull,
    project_onto_simplex,
)
from .sampling import (
    sample_boundary_mixtures,
    sample_in_polytope,
    sample_on_vertices,
    sample_outside_polytope,
)
from .steiner import steiner_lipschitz_bound, steiner_point
from .tverberg import (
    common_point_of_hulls,
    radon_partition,
    tverberg_partition,
    tverberg_partition_1d,
    verify_tverberg_partition,
)
from .volume import polytope_measure, polytope_volume, volume_ratio
from .width import (
    aspect_ratio,
    directional_width,
    max_width,
    mean_width_2d,
    min_width,
    perimeter_2d,
)

__all__ = [
    "AffineChart",
    "ConvexPolytope",
    "PERF",
    "PerfCounters",
    "DegenerateInputError",
    "DimensionMismatchError",
    "EmptyPolytopeError",
    "GeometryError",
    "HullComputationError",
    "InfeasibleRegionError",
    "SolverError",
    "affine_chart",
    "box",
    "affine_rank",
    "as_points_array",
    "aspect_ratio",
    "batch_directed_hausdorff",
    "batch_disagreement_diameter",
    "cache_stats",
    "chebyshev_center",
    "clear_geometry_caches",
    "common_point_of_hulls",
    "cross_polytope",
    "dilate",
    "directional_width",
    "dedupe_halfspaces",
    "depth_region_halfspaces",
    "directed_hausdorff",
    "disagreement_diameter",
    "distance_to_hull",
    "equal_weight_combination",
    "feasible_point",
    "hausdorff_distance",
    "hausdorff_to_point",
    "hrep_of_hull",
    "hull_vertices",
    "hull_vertices_1d",
    "hull_vertices_2d",
    "interpolate",
    "intersect_polytopes",
    "intersect_hulls",
    "intersect_subset_hulls",
    "linear_combination",
    "linear_maximize",
    "max_width",
    "mean_width_2d",
    "min_width",
    "minkowski_sum",
    "optimal_polytope_iz",
    "perimeter_2d",
    "point_in_hull",
    "polytope_measure",
    "polytope_volume",
    "project_onto_hull",
    "project_onto_simplex",
    "radon_partition",
    "regular_polygon",
    "sample_boundary_mixtures",
    "sample_in_polytope",
    "sample_on_vertices",
    "sample_outside_polytope",
    "steiner_lipschitz_bound",
    "steiner_point",
    "stochastic_row_combination",
    "subset_count",
    "subset_intersection_is_nonempty",
    "tverberg_partition",
    "tverberg_partition_1d",
    "validate_weights",
    "verify_tverberg_partition",
    "vertices_of_halfspace_system",
    "volume_ratio",
]
