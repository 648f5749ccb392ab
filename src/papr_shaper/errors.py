"""Exception types shared across the package, and the one check of a count."""

import numbers

__all__ = ["ConfigError", "ConfigKeyError", "check_count"]


class ConfigError(ValueError):
    """Base class for all library errors: an argument, descriptor or
    configuration out of range or inconsistent."""


class ConfigKeyError(ConfigError):
    """Invalid configuration input, attributed to one key."""

    def __init__(self, key: str, reason: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{key}: {reason}{where}")
        self.key = key
        self.line = line


def check_count(key: str, value, lo, hi) -> None:
    """Check a count: an integer (numpy's too), not a bool, in [lo, hi],
    raising ConfigKeyError named by its config key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigKeyError(key, f"must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ConfigKeyError(key, f"must lie in [{lo}, {hi}], got {value}")
