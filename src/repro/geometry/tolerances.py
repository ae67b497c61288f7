"""Central numeric tolerance policy for the geometry layer.

The paper works with exact real arithmetic; we work with float64.  Every
geometric predicate in this package funnels through the tolerances defined
here so that the whole library can be tightened or relaxed coherently, and
so that tests can reason about a single source of truth for "equal enough".

The values are chosen to sit several orders of magnitude below every
``epsilon`` used by the consensus layer (the smallest epsilon exercised in
the experiment suite is ``1e-3``), while staying far above float64 noise
accumulated by the hull / intersection / Minkowski pipelines.
"""

from __future__ import annotations

#: Absolute tolerance for coordinate-level comparisons (point equality,
#: halfspace membership, interval endpoints).
ABS_TOL: float = 1e-9

#: Tolerance used when testing membership of a point in a polytope.  Slightly
#: looser than :data:`ABS_TOL` because membership tests compose several
#: linear-program / projection steps, each contributing rounding error.
MEMBERSHIP_TOL: float = 1e-7

#: Tolerance below which a Chebyshev radius is considered zero, i.e. the
#: feasible region is treated as lower-dimensional (degenerate).
DEGENERACY_TOL: float = 1e-9

#: Tolerance for singular values when estimating affine rank.
RANK_TOL: float = 1e-8

#: Tolerance for deciding which side of a hyperplane a point lies on when
#: counting halfspace populations — used by the depth fast path for line
#: 5's subset-hull intersection and by the test suite's Tukey-depth oracle
#: (``tests/oracles/depth.py``), so both count "on the closed side"
#: identically.  Users scale it by the data's *extent*
#: (spread about the centroid / query point), never by raw coordinate
#: magnitude: side counts are translation-invariant, and magnitude-scaled
#: tolerances blow up on clusters translated far from the origin.
DEPTH_SIDE_TOL: float = 1e-9

#: Default tolerance used by invariant checkers in the consensus layer when
#: verifying validity / containment claims produced by this geometry stack.
INVARIANT_TOL: float = 1e-6
