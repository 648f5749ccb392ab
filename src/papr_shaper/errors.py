"""Exception types shared across the package."""

__all__ = ["PaprShaperError", "ConfigError", "DegeneratePulseError", "IllConditionedGramError"]


class PaprShaperError(Exception):
    """Base class for all library errors."""


class ConfigError(PaprShaperError, ValueError):
    """An argument, descriptor or configuration out of range or inconsistent."""


class DegeneratePulseError(PaprShaperError):
    """Operation requires a pulse with nonzero energy."""


class IllConditionedGramError(PaprShaperError):
    """Gram matrix condition estimate exceeds the zero-forcing limit."""

    def __init__(self, condition, limit):
        super().__init__(f"gram matrix condition {condition:.3e} exceeds {limit:g}")
        self.condition = condition
