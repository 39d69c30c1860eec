"""Tests for UCL-extended composite proximity addresses (Section 5)."""

import numpy as np
import pytest

from repro.mechanisms.proximity import ProximityAddress, proximity_compare
from repro.mechanisms.ucl import UclEntry
from repro.util.errors import DataError


def address(node_id, coordinate, ucl=(), prefix=None):
    return ProximityAddress(
        node_id=node_id,
        coordinate=np.asarray(coordinate, dtype=float),
        ucl=tuple(ucl),
        ip_prefix=prefix,
    )


class TestSharedRouterEstimate:
    def test_shared_router_found(self):
        a = address(1, [0, 0], ucl=[UclEntry(10, 2.0), UclEntry(11, 4.0)])
        b = address(2, [50, 50], ucl=[UclEntry(11, 1.0), UclEntry(12, 9.0)])
        assert a.shared_router_estimate(b) == pytest.approx(5.0)

    def test_minimum_over_shared_routers(self):
        a = address(1, [0, 0], ucl=[UclEntry(10, 2.0), UclEntry(11, 4.0)])
        b = address(2, [0, 0], ucl=[UclEntry(10, 8.0), UclEntry(11, 1.0)])
        assert a.shared_router_estimate(b) == pytest.approx(5.0)

    def test_no_shared_router(self):
        a = address(1, [0, 0], ucl=[UclEntry(10, 2.0)])
        b = address(2, [0, 0], ucl=[UclEntry(99, 2.0)])
        assert a.shared_router_estimate(b) is None


class TestProximityCompare:
    def test_ucl_overrides_coordinates(self):
        """The paper: if a router is shared, the proximity address is
        ignored — even when coordinates claim the nodes are far apart."""
        a = address(1, [0.0, 0.0], ucl=[UclEntry(7, 1.0)])
        b = address(2, [1000.0, 1000.0], ucl=[UclEntry(7, 1.5)])
        assert proximity_compare(a, b) == pytest.approx(2.5)

    def test_falls_back_to_coordinates(self):
        a = address(1, [0.0, 0.0])
        b = address(2, [3.0, 4.0])
        assert proximity_compare(a, b) == pytest.approx(5.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError):
            proximity_compare(address(1, [0.0]), address(2, [0.0, 0.0]))
