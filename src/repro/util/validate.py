"""Small argument-validation helpers.

These raise :class:`~repro.util.errors.ConfigurationError` with a message
naming the offending parameter, so experiment sweeps fail loudly at setup
instead of producing silently-wrong curves.
"""

from __future__ import annotations

from typing import Any

from repro.util.errors import ConfigurationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require ``value >= 0`` (NaN fails)."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def require_in_range(value: float, name: str, low: float, high: float) -> None:
    """Require ``low <= value <= high`` (inclusive on both ends)."""
    if not (low <= value <= high):
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )


def require_type(value: Any, name: str, expected: type | tuple[type, ...]) -> None:
    """Require ``isinstance(value, expected)``."""
    if not isinstance(value, expected):
        raise ConfigurationError(
            f"{name} must be {expected!r}, got {type(value).__name__}"
        )
