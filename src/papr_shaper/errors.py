"""Exception types shared across the package."""

__all__ = ["PaprShaperError", "ConfigError", "DegeneratePulseError"]


class PaprShaperError(Exception):
    """Base class for all library errors."""


class ConfigError(PaprShaperError, ValueError):
    """An argument, descriptor or configuration out of range or inconsistent."""


class DegeneratePulseError(PaprShaperError):
    """Operation requires a pulse with nonzero energy."""
