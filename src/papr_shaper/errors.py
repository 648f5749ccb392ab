"""Exception types shared across the package."""

__all__ = ["PaprShaperError", "ConfigError", "ConfigKeyError"]


class PaprShaperError(Exception):
    """Base class for all library errors."""


class ConfigError(PaprShaperError, ValueError):
    """An argument, descriptor or configuration out of range or inconsistent."""


class ConfigKeyError(ConfigError):
    """Invalid configuration input, attributed to one key."""

    def __init__(self, key: str, reason: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{key}: {reason}{where}")
        self.key = key
        self.line = line
