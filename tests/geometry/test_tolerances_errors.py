"""Tests for the tolerance policy and error hierarchy."""

import pytest

from repro.geometry.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyPolytopeError,
    GeometryError,
    HullComputationError,
    InfeasibleRegionError,
    SolverError,
)
from repro.geometry.tolerances import ABS_TOL, MEMBERSHIP_TOL, RANK_TOL


class TestTolerances:
    def test_defaults_are_ordered_sanely(self):
        # Membership tolerance must absorb the compounding of abs-level
        # noise through multi-step pipelines.
        assert MEMBERSHIP_TOL > ABS_TOL
        assert RANK_TOL > ABS_TOL


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            DimensionMismatchError,
            EmptyPolytopeError,
            DegenerateInputError,
            HullComputationError,
            InfeasibleRegionError,
            SolverError,
        ],
    )
    def test_all_derive_from_geometry_error(self, exc):
        assert issubclass(exc, GeometryError)
        with pytest.raises(GeometryError):
            raise exc("boom")

    def test_catching_family(self):
        # One except clause suffices for the consensus layer.
        try:
            raise InfeasibleRegionError("empty")
        except GeometryError as err:
            assert "empty" in str(err)
