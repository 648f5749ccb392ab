"""Exception types shared across the package, and the checks of a real number and of a count."""

import math
import numbers

__all__ = ["ConfigError", "ConfigKeyError", "check_count", "check_real"]


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


def check_real(key: str, value, lo, hi) -> None:
    """Check a real number (numpy's too, not a bool) in [lo, hi], raising ConfigKeyError(key)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigKeyError(key, f"must be a real number, got {value!r}")
    if not lo <= value <= hi:
        # the str() of a Python int has no bound on its length: past 20 digits, e-notation
        if isinstance(value, int) and abs(value) >= 10**20:
            e = int(math.log10(abs(value)))
            value = f"{value / 10**e:g}e+{e}"
        raise ConfigKeyError(key, f"must lie in [{lo}, {hi}], got {value}")


def check_count(key: str, value, lo, hi) -> None:
    """``check_real`` for a count: an integer (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigKeyError(key, f"must be an integer, got {value!r}")
    check_real(key, value, lo, hi)
