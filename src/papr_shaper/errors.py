"""Exception types shared across the package."""

__all__ = ["ConfigError", "ConfigKeyError"]


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
