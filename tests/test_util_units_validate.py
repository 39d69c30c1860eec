"""Tests for the latency unit and the validation helpers."""

import pytest

from repro.util.errors import ConfigurationError
from repro.util.units import INTRA_EN_LATENCY_MS
from repro.util.validate import (
    require,
    require_in_range,
    require_non_negative,
    require_positive,
    require_type,
)


class TestUnits:
    def test_paper_intra_en_latency_is_100_microseconds(self):
        assert INTRA_EN_LATENCY_MS * 1000 == pytest.approx(100.0)


class TestValidate:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises_with_message(self):
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(0.1, "x")
        with pytest.raises(ConfigurationError, match="x"):
            require_positive(0.0, "x")

    def test_require_non_negative(self):
        require_non_negative(0.0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-1e-9, "x")

    def test_require_in_range_inclusive(self):
        require_in_range(0.0, "x", 0.0, 1.0)
        require_in_range(1.0, "x", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            require_in_range(1.0001, "x", 0.0, 1.0)

    def test_require_type(self):
        require_type(3, "x", int)
        with pytest.raises(ConfigurationError):
            require_type("3", "x", int)
